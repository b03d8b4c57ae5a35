(* The read path (DESIGN.md §17), locked down three ways:

   1. golden responses — the SHA-256 of every encoded response to a
      fixed read battery is checked against [read_view.golden]: at every
      mutation boundary of a single ledger (append, block seal, occult
      sync and async, reorganize, storage compaction, purge), on an empty
      ledger, exhaustively over a small request domain, and over a
      sharded fleet before and after an epoch seal.  Both entry points —
      [handle] (run under the writer's serialization) and the lock-free
      [handle_read] — must reproduce every recorded byte, receipt
      timestamps and error strings included;
   2. pinned pagination — a paged scan that pins its first page's epoch
      either completes against that snapshot or gets a typed [Stale_r]
      refusal, never a silently cross-snapshot page;
   3. concurrently — reader domains hammer the snapshot path while a
      writer appends, seals, reorganizes and commits signed batches over
      a domain pool; every proof must verify against the commitment
      shipped in the {e same} response, no scan may mix two epochs
      without a [Stale_r], and every receipt signed on the read path
      must verify against the LSP key.

   Two smaller tests pin what serving from the snapshot means (no
   storage latency charged, receipts signed at publication time) and
   that a killed store is refused, typed, on every entry point. *)

open Ledger_crypto
open Ledger_storage
open Ledger_core
open Ledger_merkle
open Ledger_cmtree
module Range_query = Ledger_query.Range_query

let tc = Alcotest.test_case

(* Real crypto (deterministic ECDSA, no simulated signing cost) + free
   latency: every response is a pure function of the committed history,
   so its digest can be recorded once and replayed forever. *)
let make_env ?(entries = 10) ~name () =
  let clock = Clock.create () in
  let config =
    { Ledger.default_config with name; block_size = 4; fam_delta = 3;
      latency = Latency_model.free; crypto = Crypto_profile.Real }
  in
  let ledger = Ledger.create ~config ~clock () in
  let alice, alice_key =
    Ledger.new_member ledger ~name:"alice" ~role:Roles.Regular_user
  in
  let dba, dba_key = Ledger.new_member ledger ~name:"dba" ~role:Roles.Dba in
  let regulator, regulator_key =
    Ledger.new_member ledger ~name:"reg" ~role:Roles.Regulator
  in
  for i = 0 to entries - 1 do
    Clock.advance_ms clock 10.;
    ignore
      (Ledger.append ledger ~member:alice ~priv:alice_key
         ~clues:[ "rv-" ^ string_of_int (i mod 3) ]
         (Bytes.of_string (Printf.sprintf "rv %d" i)))
  done;
  ( clock, ledger,
    (alice, alice_key), (dba, dba_key), (regulator, regulator_key) )

let view_epoch ledger = Ledger.Read_view.epoch (Ledger.read_view ledger)

(* --- golden responses ------------------------------------------------- *)

(* [read_view.golden] holds one "<key> <sha256-hex>" line per recorded
   response; '#' lines are comments.  Keys are "<battery>:<context>/<i>".
   On a mismatch every computed line of the failing battery is appended
   to [read_view.golden.actual] beside the running test binary, ready to
   be reviewed and copied over the checked-in file. *)
let golden_file = "read_view.golden"

let goldens =
  lazy
    (let tbl = Hashtbl.create 512 in
     In_channel.with_open_text golden_file (fun ic ->
         let rec go () =
           match In_channel.input_line ic with
           | None -> ()
           | Some line ->
               (if line <> "" && line.[0] <> '#' then
                  let k = String.rindex line ' ' in
                  Hashtbl.replace tbl (String.sub line 0 k)
                    (String.sub line (k + 1) (String.length line - k - 1)));
               go ()
         in
         go ());
     tbl)

(* Answer every request through both entry points; they must agree
   byte for byte, and the shared answer is digested under "<ctx>/<i>". *)
let answers ~ctx ~handle ~handle_read reqs =
  List.mapi
    (fun i req ->
      let locked = handle req in
      match handle_read req with
      | None -> Alcotest.failf "%s: request %d misclassified as a mutation" ctx i
      | Some lock_free ->
          if not (Bytes.equal locked lock_free) then
            Alcotest.failf "%s: request %d: handle_read ≠ handle" ctx i;
          (Printf.sprintf "%s/%02d" ctx i, Hash.to_hex (Hash.digest_bytes locked)))
    reqs

let check_goldens ~battery lines =
  let tbl = Lazy.force goldens in
  let prefix = battery ^ ":" in
  let recorded =
    Hashtbl.fold
      (fun k _ n -> if String.starts_with ~prefix k then n + 1 else n)
      tbl 0
  in
  let differing =
    List.filter (fun (k, hex) -> Hashtbl.find_opt tbl k <> Some hex) lines
  in
  if differing <> [] || recorded <> List.length lines then begin
    Out_channel.with_open_gen
      [ Open_wronly; Open_append; Open_creat; Open_text ]
      0o644 (golden_file ^ ".actual")
      (fun oc ->
        List.iter (fun (k, hex) -> Printf.fprintf oc "%s %s\n" k hex) lines);
    match differing with
    | (k, _) :: _ ->
        Alcotest.failf "%s: %d of %d responses differ from %s (first: %s)"
          battery (List.length differing) (List.length lines) golden_file k
    | [] ->
        Alcotest.failf "%s: %d responses computed, %d recorded in %s" battery
          (List.length lines) recorded golden_file
  end

let ledger_answers ~ctx ledger reqs =
  answers ~ctx ~handle:(Service.handle ledger)
    ~handle_read:(Service.handle_read ledger) reqs

(* Every read request kind, in range, out of range, and malformed. *)
let read_battery ledger =
  let size = Ledger.size ledger in
  let epoch = view_epoch ledger in
  let open Service.Client in
  [
    make_get_commitment ();
    make_get_proof ~jsn:0;
    make_get_proof ~jsn:(size - 1);
    make_get_proof ~jsn:size;
    make_get_proof ~jsn:(-1);
    make_get_payload ~jsn:0;
    make_get_payload ~jsn:2;
    make_get_payload ~jsn:(size + 3);
    make_get_receipt ~jsn:(size - 1);
    make_get_receipt ~jsn:1;
    make_get_receipt ~jsn:(size + 7);
    make_get_clue_proof ~clue:"rv-1" ();
    make_get_clue_proof ~clue:"rv-1" ~first:0 ~last:0 ();
    make_get_clue_proof ~clue:"absent" ();
    make_get_extension ~old_size:(max 1 (size / 2));
    make_get_extension ~old_size:(size + 1);
    make_get_journal ~jsn:0;
    make_get_journal ~jsn:2;
    make_get_journal ~jsn:size;
    make_get_block ~height:0;
    make_get_block ~height:999;
    make_get_members ();
    make_get_checkpoint ();
    make_get_proof_bundle ~jsn:(size - 1);
    make_get_proof_bundle ~jsn:(size + 2);
    make_get_clue_bundle ~clue:"rv-0" ();
    make_get_clue_bundle ~clue:"nope" ();
    make_query_page ~spec:(Range_query.Prefix "rv-") ~page_size:2 ();
    make_query_page ~spec:(Range_query.Prefix "rv-") ~pin:epoch ~page_size:2 ();
    make_query_page ~spec:(Range_query.Prefix "rv-") ~pin:(epoch + 1)
      ~page_size:2 ();
    make_query_page
      ~spec:(Range_query.Between { lo = "rv-0"; hi = None })
      ~page_size:8 ();
    make_query_page ~spec:(Range_query.Prefix "rv-") ~page_size:0 ();
    Bytes.of_string "not a request";
    Bytes.empty;
  ]

let battery_answers ~ctx ledger =
  ledger_answers ~ctx:("single:" ^ ctx) ledger (read_battery ledger)

let test_differential_over_mutations () =
  let clock, ledger, (alice, alice_key), (dba, dba_key), (reg, reg_key) =
    make_env ~entries:10 ~name:"rv-diff" ()
  in
  let after_appends = battery_answers ~ctx:"appends" ledger in
  Ledger.seal_block ledger;
  let after_seal = battery_answers ~ctx:"seal_block" ledger in
  (match
     Ledger.occult ledger ~target_jsn:2 ~mode:Ledger.Sync
       ~signers:[ (dba, dba_key); (reg, reg_key) ] ~reason:"rv diff"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let after_occult_sync = battery_answers ~ctx:"occult_sync" ledger in
  (match
     Ledger.occult ledger ~target_jsn:4 ~mode:Ledger.Async
       ~signers:[ (dba, dba_key); (reg, reg_key) ] ~reason:"rv diff"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* async occult marked but not yet erased: the payload is still served
     until reorganize erases it *)
  let after_occult_async = battery_answers ~ctx:"occult_async" ledger in
  ignore (Ledger.reorganize ledger);
  let after_reorganize = battery_answers ~ctx:"reorganize" ledger in
  ignore (Ledger.compact_storage ledger);
  let after_compact = battery_answers ~ctx:"compact_storage" ledger in
  let request =
    { Ledger.upto_jsn = 3; survivors = [ 1 ]; erase_fam_nodes = false }
  in
  (match
     Ledger.purge ledger ~request
       ~signers:[ (dba, dba_key); (alice, alice_key) ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let after_purge = battery_answers ~ctx:"purge" ledger in
  Clock.advance_ms clock 10.;
  ignore
    (Ledger.append ledger ~member:alice ~priv:alice_key ~clues:[ "rv-post" ]
       (Bytes.of_string "post purge"));
  let after_post_purge = battery_answers ~ctx:"post_purge_append" ledger in
  check_goldens ~battery:"single"
    (List.concat
       [ after_appends; after_seal; after_occult_sync; after_occult_async;
         after_reorganize; after_compact; after_purge; after_post_purge ])

let test_differential_empty_ledger () =
  let _, ledger, _, _, _ = make_env ~entries:0 ~name:"rv-empty" () in
  check_goldens ~battery:"empty"
    (ledger_answers ~ctx:"empty:ledger" ledger (read_battery ledger))

let test_mutations_refused_on_read_path () =
  let clock, ledger, (alice, alice_key), _, _ =
    make_env ~entries:3 ~name:"rv-mut" ()
  in
  let client =
    Service.Client.create ~ledger_uri:(Ledger.uri ledger) ~member:alice
      ~priv:alice_key ()
  in
  Clock.advance_ms clock 10.;
  let append_req =
    Service.Client.make_append client ~client_ts:(Clock.now clock)
      (Bytes.of_string "must not commit")
  in
  let size0 = Ledger.size ledger in
  (match Service.handle_read ledger append_req with
  | None -> ()
  | Some _ -> Alcotest.fail "append served on the read path");
  Alcotest.(check int) "read path committed nothing" size0
    (Ledger.size ledger);
  let batch_req =
    Service.Client.make_append_batch client
      [ (Bytes.of_string "b0", [], Clock.now clock) ]
  in
  (match Service.handle_read ledger batch_req with
  | None -> ()
  | Some _ -> Alcotest.fail "append_batch served on the read path");
  (* the refused frames still commit fine through the locked path *)
  (match Service.Client.parse (Service.handle ledger append_req) with
  | Some (Service.Receipt_r _) -> ()
  | _ -> Alcotest.fail "locked path rejected the append");
  match Service.Client.parse (Service.handle ledger batch_req) with
  | Some (Service.Receipts_r _) -> ()
  | _ -> Alcotest.fail "locked path rejected the batch"

(* --- the read path's two semantic decisions ---------------------------- *)

(* Served reads come from the snapshot: a payload read charges no
   simulated storage latency (the in-process accessor still does), and a
   receipt is signed at the view's publication time, not at the clock's
   current reading. *)
let test_served_read_semantics () =
  let clock = Clock.create () in
  let config =
    { Ledger.default_config with name = "rv-sem"; block_size = 4;
      latency = Latency_model.default; crypto = Crypto_profile.Real }
  in
  let ledger = Ledger.create ~config ~clock () in
  let alice, alice_key =
    Ledger.new_member ledger ~name:"alice" ~role:Roles.Regular_user
  in
  ignore
    (Ledger.append ledger ~member:alice ~priv:alice_key ~clues:[ "sem" ]
       (Bytes.of_string "semantics"));
  let published = Ledger.Read_view.published_at (Ledger.read_view ledger) in
  Clock.advance_ms clock 25.;
  let now = Clock.now clock in
  let payload_req = Service.Client.make_get_payload ~jsn:0 in
  List.iter
    (fun (path, resp) ->
      (match Service.Client.parse resp with
      | Some (Service.Payload_r (Some p)) ->
          Alcotest.(check string) (path ^ ": payload") "semantics"
            (Bytes.to_string p)
      | _ -> Alcotest.failf "%s: payload read refused" path);
      Alcotest.(check int64) (path ^ ": no latency charged") now
        (Clock.now clock))
    [
      ("handle", Service.handle ledger payload_req);
      ("handle_read", Option.get (Service.handle_read ledger payload_req));
    ];
  ignore (Ledger.payload ledger 0);
  Alcotest.(check bool) "in-process payload still charges latency" true
    (Clock.now clock > now);
  let receipt_req = Service.Client.make_get_receipt ~jsn:0 in
  List.iter
    (fun (path, resp) ->
      match Service.Client.parse resp with
      | Some (Service.Receipt_r r) ->
          Alcotest.(check int64) (path ^ ": signed at publication") published
            r.Receipt.timestamp;
          Alcotest.(check bool) (path ^ ": π_s verifies") true
            (Ledger.verify_receipt ledger r)
      | _ -> Alcotest.failf "%s: receipt refused" path)
    [
      ("handle", Service.handle ledger receipt_req);
      ("handle_read", Option.get (Service.handle_read ledger receipt_req));
    ]

(* --- a dead store is a typed refusal ------------------------------------ *)

let is_error_r resp =
  match Service.Client.parse resp with
  | Some (Service.Error_r _) -> true
  | _ -> false

let test_dead_store_refused () =
  let _, ledger, _, _, _ = make_env ~entries:3 ~name:"rv-dead" () in
  Stream_store.Unsafe.kill (Ledger.backing_store ledger);
  let req = Service.Client.make_get_payload ~jsn:0 in
  Alcotest.(check bool) "handle refuses" true
    (is_error_r (Service.handle ledger req));
  Alcotest.(check bool) "handle_read refuses" true
    (is_error_r (Option.get (Service.handle_read ledger req)));
  let module SL = Ledger_shard.Sharded_ledger in
  let module SS = Ledger_shard.Sharded_service in
  let clock = Clock.create () in
  let config =
    {
      SL.base =
        { Ledger.default_config with name = "rv-dead-fleet";
          latency = Latency_model.free; crypto = Crypto_profile.Real };
      shards = 2;
    }
  in
  let fleet = SL.create ~config ~clock () in
  let user, key = SL.new_member fleet ~name:"fu" ~role:Roles.Regular_user in
  let shard, _ =
    SL.append fleet ~member:user ~priv:key ~clues:[ "dead" ]
      (Bytes.of_string "on a dying shard")
  in
  Stream_store.Unsafe.kill (Ledger.backing_store (SL.shard fleet shard));
  let req = SS.Client.make_to_shard ~shard req in
  List.iter
    (fun (path, resp) ->
      match SS.Client.parse resp with
      | Some (SS.From_shard { shard = s; inner }) ->
          Alcotest.(check int) (path ^ ": answered by the shard") shard s;
          Alcotest.(check bool) (path ^ ": inner refusal") true
            (is_error_r inner)
      | _ -> Alcotest.failf "%s: no From_shard answer" path)
    [
      ("SS.handle", SS.handle fleet req);
      ("SS.handle_read", Option.get (SS.handle_read fleet req));
    ]

(* --- every read over a small request domain ------------------------- *)

(* Each request kind over its whole small parameter domain: jsn/height/
   old_size in [-3, 20] against a 12-journal ledger (in range, both
   edges, past the end), five clues (three present, two absent) and
   page sizes in [-1, 6] per clue. *)
let test_request_domain () =
  let _, ledger, _, _, _ = make_env ~entries:12 ~name:"rv-rand" () in
  let open Service.Client in
  let per_jsn jsn =
    [
      make_get_proof ~jsn;
      make_get_payload ~jsn;
      make_get_receipt ~jsn;
      make_get_journal ~jsn;
      make_get_block ~height:jsn;
      make_get_extension ~old_size:jsn;
      make_get_proof_bundle ~jsn;
    ]
  in
  let per_clue clue_i =
    let clue = "rv-" ^ string_of_int clue_i in
    make_get_clue_proof ~clue ()
    :: make_get_clue_bundle ~clue ()
    :: List.init 8 (fun k ->
           make_query_page ~spec:(Range_query.Prefix clue) ~page_size:(k - 1)
             ())
  in
  let reqs =
    List.concat_map per_jsn (List.init 24 (fun k -> k - 3))
    @ List.concat_map per_clue (List.init 5 Fun.id)
  in
  check_goldens ~battery:"domain"
    (ledger_answers ~ctx:"domain:rv-rand" ledger reqs)

(* --- epoch-pinned pagination ---------------------------------------- *)

let parse_page ledger req =
  match Option.map Service.Client.parse (Service.handle_read ledger req) with
  | Some (Some r) -> r
  | _ -> Alcotest.fail "read path returned nothing for a query page"

let test_query_pin () =
  let clock, ledger, (alice, alice_key), _, _ =
    make_env ~entries:9 ~name:"rv-pin" ()
  in
  let spec = Range_query.Prefix "rv-" in
  let epoch, cursor =
    match
      parse_page ledger
        (Service.Client.make_query_page ~spec ~page_size:1 ())
    with
    | Service.Query_page_r { epoch; page; _ } ->
        (epoch, page.Range_query.cursor)
    | _ -> Alcotest.fail "first page failed"
  in
  Alcotest.(check int) "epoch is the published view's"
    (view_epoch ledger) epoch;
  let after = match cursor with Some c -> c | None -> Alcotest.fail "one-page scan" in
  (* same-epoch pin is honoured and echoes the same epoch *)
  (match
     parse_page ledger
       (Service.Client.make_query_page ~spec ~after ~pin:epoch ~page_size:1 ())
   with
  | Service.Query_page_r { epoch = e2; _ } ->
      Alcotest.(check int) "pinned page on the same epoch" epoch e2
  | _ -> Alcotest.fail "pinned page refused on an unchanged view");
  (* a write republishes the view: the pin must now be refused, typed *)
  Clock.advance_ms clock 10.;
  ignore
    (Ledger.append ledger ~member:alice ~priv:alice_key ~clues:[ "rv-w" ]
       (Bytes.of_string "invalidates the pin"));
  let stale_req =
    Service.Client.make_query_page ~spec ~after ~pin:epoch ~page_size:1 ()
  in
  (match parse_page ledger stale_req with
  | Service.Stale_r { pinned; current } ->
      Alcotest.(check int) "refusal echoes the pin" epoch pinned;
      Alcotest.(check int) "refusal reports the current epoch"
        (view_epoch ledger) current
  | Service.Query_page_r _ -> Alcotest.fail "stale pin served a page"
  | _ -> Alcotest.fail "unexpected response to a stale pin");
  (* the locked path refuses byte-identically *)
  Alcotest.(check bool) "locked path agrees on the refusal" true
    (Bytes.equal
       (Service.handle ledger stale_req)
       (Option.get (Service.handle_read ledger stale_req)));
  (* re-pinning on the current epoch resumes the scan *)
  match
    parse_page ledger
      (Service.Client.make_query_page ~spec ~after
         ~pin:(view_epoch ledger) ~page_size:1 ())
  with
  | Service.Query_page_r _ -> ()
  | _ -> Alcotest.fail "fresh pin refused"

(* --- concurrent readers vs. a mutating writer ------------------------ *)

let test_concurrent_readers () =
  let clock, ledger, (alice, alice_key), (dba, dba_key), (reg, reg_key) =
    make_env ~entries:12 ~name:"rv-conc" ()
  in
  let seed_n = Ledger.size ledger in
  let tx = Array.init seed_n (Ledger.tx_hash_of ledger) in
  (* whole-clue lineage fixtures: the writer appends under fresh clues
     only, so the seed clues' version lists never change *)
  let known_of clue =
    List.mapi (fun v jsn -> (v, tx.(jsn))) (Ledger.clue_jsns ledger clue)
  in
  let lineages =
    List.map (fun c -> (c, known_of c)) [ "rv-0"; "rv-1"; "rv-2" ]
  in
  let spec = Range_query.Prefix "rv-" in
  let stop = Atomic.make false in
  let failure = Atomic.make None in
  let record msg =
    ignore (Atomic.compare_and_set failure None (Some msg))
  in
  let check_bundle jsn =
    match
      Option.map Service.Client.parse
        (Service.handle_read ledger
           (Service.Client.make_get_proof_bundle ~jsn))
    with
    | Some (Some (Service.Proof_bundle_r { proof; commitment; size })) ->
        if size < seed_n then record "bundle size went backwards";
        if not (Fam.verify ~commitment ~leaf:tx.(jsn) proof) then
          record "fam proof failed against its own bundled commitment"
    | Some _ -> record "proof bundle: unexpected response"
    | None -> record "read request misrouted to the mutation path"
  in
  let check_lineage (clue, known) =
    match
      Option.map Service.Client.parse
        (Service.handle_read ledger
           (Service.Client.make_get_clue_bundle ~clue ()))
    with
    | Some (Some (Service.Clue_bundle_r { proof = Some p; clue_root })) ->
        if not (Cm_tree.verify_clue ~root:clue_root ~known p) then
          record "clue proof failed against its own bundled root"
    | Some (Some (Service.Clue_bundle_r { proof = None; _ })) ->
        record "seed clue disappeared mid-run"
    | Some _ -> record "clue bundle: unexpected response"
    | None -> record "read request misrouted to the mutation path"
  in
  (* a pinned scan must complete on one epoch or be refused with Stale_r;
     a page from a different epoch without the refusal is equivocation *)
  let check_scan () =
    match
      Option.map Service.Client.parse
        (Service.handle_read ledger
           (Service.Client.make_query_page ~spec ~page_size:2 ()))
    with
    | Some (Some (Service.Query_page_r { page; query_root; epoch; _ })) -> (
        let rec follow acc cursor =
          match cursor with
          | None -> `Done (List.rev acc)
          | Some after -> (
              match
                Option.map Service.Client.parse
                  (Service.handle_read ledger
                     (Service.Client.make_query_page ~spec ~after ~pin:epoch
                        ~page_size:2 ()))
              with
              | Some
                  (Some
                     (Service.Query_page_r
                        { page; epoch = e; query_root = r; _ })) ->
                  if e <> epoch || not (Hash.equal r query_root) then `Mixed
                  else follow (page :: acc) page.Range_query.cursor
              | Some (Some (Service.Stale_r _)) -> `Stale
              | _ -> `Bad)
        in
        match follow [ page ] page.Range_query.cursor with
        | `Done pages -> (
            match
              Range_query.verify_pages ~root:query_root ~spec ~page_size:2
                pages
            with
            | Ok _ -> ()
            | Error e -> record ("pinned scan failed verification: " ^ e))
        | `Stale -> () (* typed retryable refusal: the allowed outcome *)
        | `Mixed -> record "scan mixed two epochs without a Stale_r"
        | `Bad -> record "scan: unexpected response")
    | Some (Some (Service.Error_r e)) -> record ("first page refused: " ^ e)
    | _ -> record "first page: unexpected response"
  in
  let reader rid =
    Domain.spawn (fun () ->
        let n = ref 0 in
        while not (Atomic.get stop) do
          incr n;
          check_bundle ((rid + !n) mod seed_n);
          check_lineage (List.nth lineages (!n mod List.length lineages));
          check_scan ()
        done;
        !n)
  in
  (* receipt readers: every π_s served on the read path is signed there,
     on the reader's domain, while the writer's pool verifies π_c on
     others; each must check against the LSP key *)
  let lsp_pub = Ledger.lsp_public_key ledger in
  let check_receipt jsn =
    match
      Option.map Service.Client.parse
        (Service.handle_read ledger (Service.Client.make_get_receipt ~jsn))
    with
    | Some (Some (Service.Receipt_r r)) ->
        let digest =
          Receipt.signing_digest ~jsn:r.jsn ~request_hash:r.request_hash
            ~tx_hash:r.tx_hash ~block_hash:r.block_hash ~timestamp:r.timestamp
        in
        if r.jsn <> jsn then record "receipt for another jsn"
        else if not (Ecdsa.verify lsp_pub digest r.lsp_sig) then
          record (Printf.sprintf "receipt %d: pi_s does not verify" jsn)
    | Some _ -> record "receipt: unexpected response"
    | None -> record "read request misrouted to the mutation path"
  in
  let receipt_reader rid =
    Domain.spawn (fun () ->
        let n = ref 0 in
        while not (Atomic.get stop) do
          incr n;
          let size = Ledger.Read_view.size (Ledger.read_view ledger) in
          (* alternate the newest receipts with a sweep over all *)
          check_receipt
            (if !n mod 2 = 0 then size - 1 - (!n / 2 mod min size 32)
             else (rid + !n) mod size)
        done;
        !n)
  in
  let readers = List.init 3 reader @ List.init 2 receipt_reader in
  (* writer: appends under fresh clues, seals blocks, occults + reorganizes *)
  for i = 0 to 11 do
    Clock.advance_ms clock 10.;
    ignore
      (Ledger.append ledger ~member:alice ~priv:alice_key
         ~clues:[ "w-" ^ string_of_int i ]
         (Bytes.of_string (Printf.sprintf "writer %d" i)));
    if i mod 4 = 3 then Ledger.seal_block ledger;
    if i = 5 then begin
      (match
         Ledger.occult ledger ~target_jsn:(seed_n + 1) ~mode:Ledger.Async
           ~signers:[ (dba, dba_key); (reg, reg_key) ] ~reason:"conc"
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      ignore (Ledger.reorganize ledger)
    end
  done;
  (* then 32-entry signed batches, their π_c checked across a 2-domain
     pool; every batch must be admitted and every receipt verify *)
  let pool = Ledger_par.Domain_pool.create ~domains:2 () in
  for b = 0 to 5 do
    let entries =
      List.init 32 (fun k ->
          let payload = Bytes.of_string (Printf.sprintf "batch %d/%d" b k) in
          let clues = [ Printf.sprintf "b-%d" (k mod 4) ] in
          (payload, clues, Clock.now clock, 1_000 + (32 * b) + k))
    in
    let digests =
      Array.of_list
        (List.map
           (fun (payload, clues, client_ts, nonce) ->
             Journal.request_digest ~ledger_uri:(Ledger.uri ledger)
               ~kind_tag:"normal" ~payload ~clues ~client_ts ~nonce)
           entries)
    in
    let sigs = Ecdsa.sign_many alice_key digests in
    match
      Ledger.append_signed_batch ~pool ledger ~member_id:alice.Roles.id
        (List.mapi
           (fun k (payload, clues, client_ts, nonce) ->
             (payload, clues, client_ts, nonce, sigs.(k)))
           entries)
    with
    | Ok rs ->
        if List.length rs <> 32 then record "batch: wrong receipt count";
        if not (List.for_all (Receipt.verify ~lsp_pub) rs) then
          record (Printf.sprintf "batch %d: a receipt does not verify" b)
    | Error e -> record (Printf.sprintf "batch %d refused: %s" b e)
  done;
  Ledger_par.Domain_pool.shutdown pool;
  Atomic.set stop true;
  let iterations = List.map Domain.join readers in
  (match Atomic.get failure with
  | Some msg -> Alcotest.fail msg
  | None -> ());
  List.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "reader %d made progress" i)
        true (n > 0))
    iterations

(* --- sharded fleet ----------------------------------------------------- *)

let test_sharded_differential () =
  let module SL = Ledger_shard.Sharded_ledger in
  let module SS = Ledger_shard.Sharded_service in
  let clock = Clock.create () in
  let config =
    {
      SL.base =
        { Ledger.default_config with name = "rv-fleet"; block_size = 4;
          fam_delta = 3; latency = Latency_model.free;
          crypto = Crypto_profile.Real };
      shards = 2;
    }
  in
  let fleet = SL.create ~config ~clock () in
  let user, key = SL.new_member fleet ~name:"fu" ~role:Roles.Regular_user in
  let append i =
    Clock.advance_ms clock 10.;
    ignore
      (SL.append fleet ~member:user ~priv:key
         ~clues:[ "f" ^ string_of_int (i mod 4) ]
         (Bytes.of_string (Printf.sprintf "f %d" i)))
  in
  let battery =
    let to_shard shard inner = SS.Client.make_to_shard ~shard inner in
    [
      SS.Client.make_get_topology ();
      SS.Client.make_get_super_root ();
      SS.Client.make_get_super_root ~epoch:0 ();
      SS.Client.make_get_super_root ~epoch:99 ();
      SS.Client.make_get_sharded_proof ~shard:0 ~jsn:0;
      SS.Client.make_get_sharded_proof ~shard:1 ~jsn:0;
      SS.Client.make_get_sharded_proof ~shard:5 ~jsn:0;
      SS.Client.make_get_sharded_proof ~shard:0 ~jsn:999;
      SS.Client.make_get_announcement ();
      SS.Client.make_get_announcement ~epoch:0 ();
      SS.Client.make_get_announcement ~epoch:42 ();
      SS.Client.make_query_scatter ~spec:(Range_query.Prefix "f")
        ~page_size:4 ();
      SS.Client.make_query_scatter ~spec:(Range_query.Prefix "f")
        ~page_size:0 ();
      to_shard 0 (Service.Client.make_get_commitment ());
      to_shard 1 (Service.Client.make_get_proof ~jsn:0);
      to_shard 1 (Service.Client.make_get_checkpoint ());
      to_shard 0 (Service.Client.make_get_payload ~jsn:1);
      to_shard 0 (Service.Client.make_get_journal ~jsn:0);
      to_shard 1 (Service.Client.make_get_block ~height:0);
      to_shard 0 (Service.Client.make_get_members ());
      to_shard 1 (Service.Client.make_get_proof_bundle ~jsn:1);
      to_shard 0 (Service.Client.make_get_clue_bundle ~clue:"f0" ());
      to_shard 1
        (Service.Client.make_query_page ~spec:(Range_query.Prefix "f")
           ~page_size:2 ());
      to_shard 9 (Service.Client.make_get_commitment ());
      to_shard 0 (Bytes.of_string "inner garbage");
      Bytes.of_string "sharded garbage";
    ]
  in
  let fleet_answers ctx =
    answers ~ctx:("sharded:" ^ ctx) ~handle:(SS.handle fleet)
      ~handle_read:(SS.handle_read fleet) battery
  in
  for i = 0 to 11 do append i done;
  let unsealed = fleet_answers "unsealed" in
  (match SL.seal_epoch fleet with Ok _ -> () | Error e -> Alcotest.fail e);
  let sealed = fleet_answers "sealed" in
  (* shards that commit past the sealed roots refuse composed proofs *)
  append 12;
  append 13;
  let past_seal = fleet_answers "past_seal" in
  check_goldens ~battery:"sharded" (unsealed @ sealed @ past_seal);
  (* fleet mutations stay on the locked path *)
  (match SS.handle_read fleet (SS.Client.make_seal_epoch ()) with
  | None -> ()
  | Some _ -> Alcotest.fail "seal_epoch served on the read path");
  let sc = SS.Client.create ~config ~member:user ~priv:key () in
  Clock.advance_ms clock 10.;
  let _, routed =
    SS.Client.make_append sc ~client_ts:(Clock.now clock)
      (Bytes.of_string "routed")
  in
  (match SS.handle_read fleet routed with
  | None -> ()
  | Some _ -> Alcotest.fail "routed append served on the read path");
  (* a wrapped inner mutation is a mutation too *)
  let inner_client =
    Service.Client.create
      ~ledger_uri:(Ledger.uri (SL.shard fleet 0))
      ~member:user ~priv:key ()
  in
  Clock.advance_ms clock 10.;
  let wrapped =
    SS.Client.make_to_shard ~shard:0
      (Service.Client.make_append inner_client ~client_ts:(Clock.now clock)
         (Bytes.of_string "wrapped"))
  in
  match SS.handle_read fleet wrapped with
  | None -> ()
  | Some _ -> Alcotest.fail "wrapped inner append served on the read path"

(* The [Get_members] list is the registry's own, kept sorted at
   registration rather than rebuilt per publication (DESIGN.md §10).
   After every membership change, on every path that registers members,
   the next view and the wire answer must equal a from-scratch rebuild
   — sort by name (equal names by key bytes), then encode — however
   unsorted the names arrive. *)
let members_t = Alcotest.(list (triple string string string))

let hex_wire l =
  let hex b =
    Bytes.fold_left (fun acc c -> acc ^ Printf.sprintf "%02x" (Char.code c)) "" b
  in
  List.map (fun (n, r, pub) -> (n, r, hex pub)) l

let rebuilt_members ledger =
  Roles.members (Ledger.registry ledger)
  |> List.map (fun (m : Roles.member) ->
         ( m.Roles.name,
           Roles.role_to_string m.Roles.role,
           Ecdsa.public_key_to_bytes m.Roles.pub ))
  |> List.sort (fun (n1, _, p1) (n2, _, p2) -> compare (n1, p1) (n2, p2))

let check_members label ledger =
  let expect = hex_wire (rebuilt_members ledger) in
  Alcotest.check members_t (label ^ ": view") expect
    (hex_wire (Ledger.Read_view.members_wire (Ledger.read_view ledger)));
  match Service.handle_read ledger (Service.Client.make_get_members ()) with
  | Some resp -> (
      match Service.Client.parse resp with
      | Some (Service.Members_r l) ->
          Alcotest.check members_t (label ^ ": Get_members") expect (hex_wire l)
      | _ -> Alcotest.failf "%s: Get_members answered no member list" label)
  | None -> Alcotest.failf "%s: Get_members left the read path" label

let test_members_view () =
  let clock = Clock.create () in
  let config =
    { Ledger.default_config with name = "members"; block_size = 4;
      fam_delta = 3; latency = Latency_model.free;
      crypto = Crypto_profile.default_simulated }
  in
  let ledger = Ledger.create ~config ~clock () in
  check_members "empty" ledger;
  let append (member, priv) i =
    Clock.advance_ms clock 10.;
    ignore
      (Ledger.append ledger ~member ~priv
         (Bytes.of_string (Printf.sprintf "m %d" i)))
  in
  (* unsorted names, appends in between, and two members sharing a name *)
  List.iteri
    (fun i (name, role) ->
      let cred = Ledger.new_member ledger ~name ~role in
      check_members ("registered " ^ name) ledger;
      append cred i;
      check_members ("appended after " ^ name) ledger)
    [ ("zed", Roles.Regular_user); ("amy", Roles.Dba); ("mike", Roles.Regulator);
      ("bo", Roles.Regular_user) ];
  List.iter
    (fun seed ->
      let _, pub = Ecdsa.generate ~seed in
      ignore (Ledger.register_member ledger ~name:"mike" ~role:Roles.Regular_user pub);
      check_members ("second mike " ^ seed) ledger)
    [ "mike-a"; "mike-b" ];
  Alcotest.(check int) "six members" 6
    (List.length (Ledger.Read_view.members_wire (Ledger.read_view ledger)));
  (* reload and replica pull carry the same list *)
  let origin = hex_wire (rebuilt_members ledger) in
  let dir = Filename.temp_file "members" "snap" in
  Sys.remove dir;
  Ledger.save ledger ~dir;
  (match Ledger.load ~config ~clock:(Clock.create ()) ~dir () with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
      check_members "loaded" loaded;
      Alcotest.check members_t "loaded = origin" origin
        (hex_wire (rebuilt_members loaded)));
  let scratch_dir = Filename.temp_file "members" "stage" in
  Sys.remove scratch_dir;
  (match
     Replica.pull_verbose ~transport:(Service.handle ledger)
       ~policy:Transport.no_retry ~config ~clock:(Clock.create ())
       ~scratch_dir ()
   with
  | Error e -> Alcotest.fail (Replica.error_to_string e)
  | Ok (replica, _) ->
      check_members "replica" replica;
      Alcotest.check members_t "replica = origin" origin
        (hex_wire (rebuilt_members replica)));
  (* CA-certified members, then a reload that re-checks every certificate *)
  let ca_priv, ca_pub = Ecdsa.generate ~seed:"members-ca" in
  let ca_config = { config with name = "members-ca"; member_ca = Some ca_pub } in
  let ca_ledger = Ledger.create ~config:ca_config ~clock () in
  List.iter
    (fun name ->
      let member, priv =
        Ledger.new_member ~ca_priv ca_ledger ~name ~role:Roles.Regular_user
      in
      check_members ("certified " ^ name) ca_ledger;
      Clock.advance_ms clock 10.;
      ignore (Ledger.append ca_ledger ~member ~priv (Bytes.of_string name));
      check_members ("appended after certified " ^ name) ca_ledger)
    [ "yara"; "cole"; "quin" ];
  let ca_dir = Filename.temp_file "members" "ca" in
  Sys.remove ca_dir;
  Ledger.save ca_ledger ~dir:ca_dir;
  (match Ledger.load ~config:ca_config ~clock:(Clock.create ()) ~dir:ca_dir () with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
      check_members "certified, loaded" loaded;
      Alcotest.check members_t "certified loaded = origin"
        (hex_wire (rebuilt_members ca_ledger))
        (hex_wire (rebuilt_members loaded)));
  (* a sharded fleet registers each member on every shard *)
  let module SL = Ledger_shard.Sharded_ledger in
  let fleet =
    SL.create
      ~config:{ SL.base = { config with name = "members-fleet" }; shards = 3 }
      ~clock:(Clock.create ()) ()
  in
  List.iter
    (fun name ->
      ignore (SL.new_member fleet ~name ~role:Roles.Regular_user);
      for i = 0 to SL.shard_count fleet - 1 do
        check_members (Printf.sprintf "fleet shard %d after %s" i name)
          (SL.shard fleet i)
      done)
    [ "wren"; "abe"; "nia" ]

(* The read path declines a mutation by its tag byte: an [Append_batch]
   frame of 256 signed entries costs [handle_read] no decode.  Decoding
   it only to return [None] took thousands of minor words per frame, all
   garbage on the serving worker. *)
let test_read_path_declines_unread () =
  let clock, ledger, (alice, alice_key), _, _ =
    make_env ~entries:1 ~name:"rv-decline" ()
  in
  let client =
    Service.Client.create ~ledger_uri:(Ledger.uri ledger) ~member:alice
      ~priv:alice_key ()
  in
  let frame =
    Service.Client.make_append_batch client
      (List.init 256 (fun i ->
           (Bytes.of_string (Printf.sprintf "batch %d" i), [], Clock.now clock)))
  in
  ignore (Service.handle_read ledger frame);
  let before = Gc.minor_words () in
  let answer = Service.handle_read ledger frame in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "declined" true (answer = None);
  if words > 64. then
    Alcotest.failf "handle_read on an Append_batch: %.0f minor words, bound 64"
      words

(* Words a call allocates straight on the major heap: OCaml puts a block
   of more than 256 words there, uncounted by the minor heap, and only a
   major collection takes it back.  Promotions are subtracted, so a
   minor collection inside the call does not count. *)
let direct_major_words f =
  let _, p0, m0 = Gc.counters () in
  let r = f () in
  let _, p1, m1 = Gc.counters () in
  (r, m1 -. p1 -. (m0 -. p0))

(* A served lineage read of 1–2 KiB is encoded in the domain's scratch
   and copied out once, at exact size: no block of it is large enough
   for the major heap.  A doubling buffer reaches 2 048 bytes for such an
   answer, one word past the minor heap's limit. *)
let test_lineage_read_stays_minor () =
  let _, ledger, _, _, _ = make_env ~entries:45 ~name:"rv-lineage" () in
  let req = Service.Client.make_get_clue_bundle ~clue:"rv-1" () in
  let size = Bytes.length (Option.get (Service.handle_read ledger req)) in
  if size <= 1024 || size >= 2048 then
    Alcotest.failf "lineage answer is %d bytes, outside the 1–2 KiB window"
      size;
  let _, words =
    direct_major_words (fun () ->
        for _ = 1 to 64 do
          ignore (Service.handle_read ledger req)
        done)
  in
  if words > 0. then
    Alcotest.failf "64 lineage reads of %d bytes: %.0f words straight to the \
                    major heap, bound 0" size words

(* The sharded read path declines its mutations by tag bytes too: a
   [To_shard] wrapping a 256-entry [Append_batch], a [Routed_append]
   and a [Seal_epoch] cost [handle_read] no decode, and a wrapped read
   is answered with [handle]'s bytes. *)
let test_sharded_read_path_declines_unread () =
  let module SL = Ledger_shard.Sharded_ledger in
  let module SS = Ledger_shard.Sharded_service in
  let clock = Clock.create () in
  let config =
    {
      SL.base =
        { Ledger.default_config with name = "rv-fleet-decline";
          latency = Latency_model.free; crypto = Crypto_profile.Real };
      shards = 2;
    }
  in
  let fleet = SL.create ~config ~clock () in
  let user, key = SL.new_member fleet ~name:"fd" ~role:Roles.Regular_user in
  let inner =
    Service.Client.make_append_batch
      (Service.Client.create ~ledger_uri:"ledger://rv-fleet-decline-0"
         ~member:user ~priv:key ())
      (List.init 256 (fun i ->
           (Bytes.of_string (Printf.sprintf "batch %d" i), [], Clock.now clock)))
  in
  let client = SS.Client.create ~config ~member:user ~priv:key () in
  let mutations =
    [
      SS.Client.make_to_shard ~shard:0 inner;
      snd (SS.Client.make_append client ~client_ts:(Clock.now clock)
             (Bytes.of_string "routed"));
      SS.Client.make_seal_epoch ();
    ]
  in
  List.iter
    (fun frame ->
      ignore (SS.handle_read fleet frame);
      let before = Gc.minor_words () in
      let answer = SS.handle_read fleet frame in
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool) "declined" true (answer = None);
      if words > 64. then
        Alcotest.failf "sharded handle_read on a mutation: %.0f minor words, \
                        bound 64" words)
    mutations;
  let read = SS.Client.make_to_shard ~shard:1 (Service.Client.make_get_members ()) in
  Alcotest.(check (option bytes)) "wrapped read" (Some (SS.handle fleet read))
    (SS.handle_read fleet read)

let suite =
  [
    tc "differential: every mutation boundary" `Slow
      test_differential_over_mutations;
    tc "differential: empty ledger" `Quick test_differential_empty_ledger;
    tc "mutations refused on the read path" `Quick
      test_mutations_refused_on_read_path;
    tc "golden: every read over a small domain" `Quick test_request_domain;
    tc "served reads: no latency charge, receipts at publication" `Quick
      test_served_read_semantics;
    tc "dead store: typed refusal on every entry point" `Quick
      test_dead_store_refused;
    tc "query pagination: epoch pin and Stale_r" `Quick test_query_pin;
    tc "concurrent readers vs mutating writer" `Slow test_concurrent_readers;
    tc "sharded: snapshot ≡ locked dispatch" `Slow test_sharded_differential;
    tc "members: view equals a rebuild after every change" `Quick
      test_members_view;
    tc "read path declines a mutation frame undecoded" `Quick
      test_read_path_declines_unread;
    tc "served lineage read puts no block on the major heap" `Quick
      test_lineage_read_stays_minor;
    tc "sharded read path declines mutation frames undecoded" `Quick
      test_sharded_read_path_declines_unread;
  ]
