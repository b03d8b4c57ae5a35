(* Commit-path goldens: one scripted ledger run drives every append
   entry point, the system journals (TSA anchor, occult, purge) and a
   snapshot round trip under non-zero crypto and latency charges, with a
   block size and fam delta small enough that batches cross block and
   epoch boundaries.  After every step the encoded journals and receipts,
   the commitment, the CM-Tree root, the block list and the simulated
   clock are recorded and checked against [commit_path.golden] — so the
   bytes each step commits, and the clock at every acceptance or
   refusal, cannot drift. *)

open Ledger_crypto
open Ledger_storage
open Ledger_merkle
open Ledger_mpt
open Ledger_cmtree
open Ledger_core
open Ledger_timenotary

let tc = Alcotest.test_case

(* [commit_path.golden] holds one "<step>/<field> <value>" line per
   recorded value; '#' lines are comments.  On a mismatch every computed
   line is written to [commit_path.golden.actual] beside the running
   test binary, ready to be reviewed and copied over the checked-in
   file. *)
let golden_file = "commit_path.golden"

let read_golden () =
  In_channel.with_open_text golden_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let config =
  { Ledger.default_config with
    name = "commit-path";
    block_size = 4;
    fam_delta = 3;
    latency = Latency_model.default;
    crypto = Crypto_profile.Simulated { sign_us = 30.; verify_us = 70. } }

let digest_list f xs =
  let buf = Buffer.create 1024 in
  List.iter (fun x -> Buffer.add_bytes buf (f x)) xs;
  Hash.to_hex (Hash.digest_bytes (Buffer.to_bytes buf))

let encode_receipt r =
  let w = Wire.writer () in
  Service.w_receipt w r;
  Wire.contents w

let encode_journal ledger jsn =
  let j = Ledger.journal ledger jsn in
  let tx = Ledger.tx_hash_of ledger jsn in
  Bytes.cat (Hash.to_bytes tx) (Journal_codec.encode j)

let encode_block (b : Block.t) =
  Bytes.of_string
    (Printf.sprintf "%d:%d:%d:%s;" b.Block.height b.Block.start_jsn
       b.Block.count
       (Hash.to_hex (Block.hash b)))

(* The recorded state after one step. *)
let record ~step ~clock ~outcome ~receipts ledger =
  let line field value = Printf.sprintf "%s/%s %s" step field value in
  [
    line "outcome" outcome;
    line "size" (string_of_int (Ledger.size ledger));
    line "journals"
      (digest_list (encode_journal ledger)
         (List.init (Ledger.size ledger) Fun.id));
    line "receipts" (digest_list encode_receipt receipts);
    line "commitment" (Hash.to_hex (Ledger.commitment ledger));
    line "cm_root" (Hash.to_hex (Cm_tree.root_hash (Ledger.cm_tree ledger)));
    line "blocks" (digest_list encode_block (Ledger.blocks ledger));
    line "block_count" (string_of_int (Ledger.block_count ledger));
    line "clock" (Int64.to_string (Clock.now clock));
  ]

let signed_entry ledger ~member ~priv i =
  let payload = Bytes.of_string (Printf.sprintf "signed %d" i) in
  let clues = [ "sig-" ^ string_of_int (i mod 3) ] in
  let client_ts = Int64.of_int (1000 + i) in
  let nonce = 5000 + i in
  let request_hash =
    Journal.request_digest ~ledger_uri:(Ledger.uri ledger) ~kind_tag:"normal"
      ~payload ~clues ~client_ts ~nonce
  in
  let signature =
    Crypto_profile.sign_pure config.Ledger.crypto ~priv ~pub:member.Roles.pub
      request_hash
  in
  (payload, clues, client_ts, nonce, signature)

let local_entries prefix n =
  List.init n (fun i ->
      ( Bytes.of_string (Printf.sprintf "%s %d" prefix i),
        if i mod 2 = 0 then [ prefix; "shared" ] else [ "shared" ] ))

let fresh_dir () =
  let d = Filename.temp_file "commitpath" "dir" in
  Sys.remove d;
  d

let script () =
  let clock = Clock.create () in
  let tsa = Tsa.pool [ Tsa.create ~endorse_rtt_ms:1. ~clock "nts" ] in
  let ledger = Ledger.create ~config ~tsa ~clock () in
  let alice, alice_key =
    Ledger.new_member ledger ~name:"alice" ~role:Roles.Regular_user
  in
  let bob, bob_key = Ledger.new_member ledger ~name:"bob" ~role:Roles.Regular_user in
  let carol, carol_key =
    Ledger.new_member ledger ~name:"carol" ~role:Roles.Regular_user
  in
  let dba, dba_key = Ledger.new_member ledger ~name:"dba" ~role:Roles.Dba in
  let regulator, regulator_key =
    Ledger.new_member ledger ~name:"regulator" ~role:Roles.Regulator
  in
  let lines = ref [] in
  let step name ?(receipts = []) ?(on = ledger) ?(clock = clock) outcome =
    lines := !lines @ record ~step:name ~clock ~outcome ~receipts on
  in
  let result_outcome = function Ok _ -> "ok" | Error e -> "error: " ^ e in
  step "00-setup" "ok";
  let r =
    Ledger.append ledger ~member:alice ~priv:alice_key
      ~cosigners:[ (bob, bob_key); (carol, carol_key) ]
      ~clues:[ "doc"; "shared" ] (Bytes.of_string "cosigned")
  in
  step "01-append-cosigned" ~receipts:[ r ] "ok";
  let r =
    Ledger.append ledger ~member:bob ~priv:bob_key ~clues:[ "doc" ]
      (Bytes.of_string "plain")
  in
  step "02-append" ~receipts:[ r ] "ok";
  let payload, clues, client_ts, nonce, signature =
    signed_entry ledger ~member:carol ~priv:carol_key 0
  in
  let res =
    Ledger.append_signed ledger ~member_id:carol.Roles.id ~payload ~clues
      ~client_ts ~nonce ~signature
  in
  step "03-append-signed" ~receipts:(Result.to_list res) (result_outcome res);
  let rs =
    Ledger.append_batch ledger ~member:alice ~priv:alice_key ~seal:true
      (local_entries "batch-sealed" 6)
  in
  step "04-append-batch-seal" ~receipts:rs "ok";
  let rs =
    Ledger.append_batch ledger ~member:bob ~priv:bob_key ~seal:false
      (local_entries "batch-open" 7)
  in
  step "05-append-batch-open" ~receipts:rs "ok";
  let entries = List.init 9 (signed_entry ledger ~member:alice ~priv:alice_key) in
  let res = Ledger.append_signed_batch ledger ~member_id:alice.Roles.id entries in
  step "06-append-signed-batch"
    ~receipts:(Result.value ~default:[] res)
    (result_outcome res);
  let entries =
    List.init 5 (fun i -> signed_entry ledger ~member:bob ~priv:bob_key (20 + i))
  in
  let bad =
    List.mapi
      (fun i ((payload, clues, client_ts, nonce, _) as e) ->
        if i = 3 then
          (* signed by the wrong key *)
          let _, _, _, _, signature =
            signed_entry ledger ~member:alice ~priv:alice_key (20 + i)
          in
          (payload, clues, client_ts, nonce, signature)
        else e)
      entries
  in
  let res = Ledger.append_signed_batch ledger ~member_id:bob.Roles.id bad in
  step "07-append-signed-batch-rejected"
    ~receipts:(Result.value ~default:[] res)
    (result_outcome res);
  let payload, clues, client_ts, nonce, _ =
    signed_entry ledger ~member:carol ~priv:carol_key 30
  in
  let _, _, _, _, wrong = signed_entry ledger ~member:bob ~priv:bob_key 30 in
  let res =
    Ledger.append_signed ledger ~member_id:carol.Roles.id ~payload ~clues
      ~client_ts ~nonce ~signature:wrong
  in
  step "08-append-signed-rejected" ~receipts:(Result.to_list res)
    (result_outcome res);
  let j = Ledger.anchor_via_tsa ledger in
  step "09-anchor-tsa" (Printf.sprintf "jsn %d" j.Journal.jsn);
  let signers = [ (dba, dba_key); (regulator, regulator_key) ] in
  let res =
    Ledger.occult ledger ~target_jsn:1 ~mode:Ledger.Sync ~signers
      ~reason:"sync occult"
  in
  step "10-occult-sync" (result_outcome res);
  let res =
    Ledger.occult ledger ~target_jsn:5 ~mode:Ledger.Async ~signers
      ~reason:"async occult"
  in
  step "11-occult-async" (result_outcome res);
  let request = { Ledger.upto_jsn = 8; survivors = [ 3 ]; erase_fam_nodes = false } in
  let purge_signers =
    (dba, dba_key)
    :: List.map
         (fun (m : Roles.member) ->
           ( m,
             List.assoc m.Roles.name
               [ ("alice", alice_key); ("bob", bob_key); ("carol", carol_key) ] ))
         (Ledger.affected_members ledger ~upto_jsn:8)
  in
  let res = Ledger.purge ledger ~request ~signers:purge_signers in
  step "12-purge" (result_outcome res);
  let rs =
    Ledger.append_batch ledger ~member:carol ~priv:carol_key ~seal:false
      (local_entries "post-purge" 3)
  in
  step "13-append-batch-post-purge" ~receipts:rs "ok";
  let dir = fresh_dir () in
  Ledger.save ledger ~dir;
  let load_clock = Clock.create () in
  let loaded =
    Ledger.load_verbose ~config ~tsa ~recover:false ~clock:load_clock ~dir ()
  in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  match loaded with
  | Error e -> Alcotest.failf "load_verbose: %s" e
  | Ok (loaded, report) ->
      step "14-load" ~on:loaded ~clock:load_clock
        (Printf.sprintf "replayed %d" report.Ledger.replayed);
      let rs =
        Ledger.append_batch loaded ~member:alice ~priv:alice_key ~seal:false
          (local_entries "post-load" 5)
      in
      step "15-append-batch-post-load" ~on:loaded ~clock:load_clock ~receipts:rs
        "ok";
      !lines

let test_commit_path_golden () =
  let lines = script () in
  let recorded = read_golden () in
  if lines <> recorded then begin
    Out_channel.with_open_text (golden_file ^ ".actual") (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines);
    let first =
      List.find_opt (fun l -> not (List.mem l recorded)) lines
      |> Option.value ~default:"(line count differs)"
    in
    Alcotest.failf "%d lines computed, %d recorded in %s; first difference: %s"
      (List.length lines) (List.length recorded) golden_file first
  end

(* Minor-heap words per entry of one 256-entry [append_signed_batch] of
   unique clues on [Domain_pool.sequential], so every word is counted on
   the calling domain, under [Real] crypto as a served ledger runs.  The
   inputs are fixed, so the count repeats exactly.  With Keccak-f boxing
   every lane store this was 26 580 words, ~21 000 of them in the three
   clue scatters of an entry (world state, query index, CM-Tree); with
   unboxed lanes and streamed trie node hashes it was 6 509 (6 335
   later), about half of it π_c and π_s; with the ECDSA scalars and
   ladders in place and the nonces' HMAC key state built once per
   batch it was 2 694; with every digest input written into the
   domain's reusable writer and hashed there with its reused SHA-256
   context, and each block hashed once per batch of receipts, it is
   1 895.  The bound is that plus about 10 %. *)
let test_batch_allocation_bound () =
  let crypto = Crypto_profile.Real in
  let ledger =
    Ledger.create
      ~config:{ Ledger.default_config with name = "alloc-bound"; crypto }
      ~clock:(Clock.create ()) ()
  in
  let member, priv =
    Ledger.new_member ledger ~name:"writer" ~role:Roles.Regular_user
  in
  let n = 256 in
  let entries =
    List.init n (fun i ->
        let payload = Bytes.of_string (Printf.sprintf "entry %d" i) in
        let clues = [ Printf.sprintf "acct/%08d" i ] in
        let client_ts = Int64.of_int i and nonce = i + 1 in
        let request_hash =
          Journal.request_digest ~ledger_uri:(Ledger.uri ledger)
            ~kind_tag:"normal" ~payload ~clues ~client_ts ~nonce
        in
        let signature =
          Crypto_profile.sign_pure crypto ~priv ~pub:member.Roles.pub
            request_hash
        in
        (payload, clues, client_ts, nonce, signature))
  in
  let before = Gc.minor_words () in
  let res =
    Ledger.append_signed_batch ~pool:Ledger_par.Domain_pool.sequential ledger
      ~member_id:member.Roles.id entries
  in
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  (match res with
  | Ok rs -> Alcotest.(check int) "receipts" n (List.length rs)
  | Error e -> Alcotest.failf "batch rejected: %s" e);
  if words > 2_080. then
    Alcotest.failf "append_signed_batch: %.0f minor words per entry, bound 2 080"
      words

(* Resident words per committed entry: the growth of everything
   reachable from a ledger over [measured] entries committed after a
   [warm_up], in signed batches of 32 on [Domain_pool.sequential].  A
   count of heap words, not a time: it repeats exactly for fixed
   inputs.  Entry [i] carries a [payload]-byte payload and the clue
   [clue i].  Each bound is the figure of one resident copy per
   payload, 64-byte signatures, level-sized cSLs and one table per
   clue's CM-Tree2, query cell and cSL plus about 10 %.  With a second
   payload copy in the stream record, two-limb-array signatures and
   24-level cSL heads the three shapes held 729, 537 and 230 words per
   entry; with writer tables beside the published clue maps and
   separate cSL and world-state tables, 480, 384 and 165; with int-array
   trie paths, option-boxed trie and forest nodes and eagerly built
   forest levels, 446, 350 and 164 (359, 263 and 152 now). *)
let resident_words_per_entry ?(warm_up = 256) ?(measured = 1024) ~payload
    ~clue () =
  let crypto = Crypto_profile.default_simulated in
  let ledger =
    Ledger.create
      ~config:{ Ledger.default_config with name = "resident"; crypto }
      ~clock:(Clock.create ()) ()
  in
  let member, priv =
    Ledger.new_member ledger ~name:"writer" ~role:Roles.Regular_user
  in
  let entry i =
    let payload = Bytes.init payload (fun k -> Char.chr ((i + k) land 0xFF)) in
    let clues = [ clue i ] in
    let client_ts = Int64.of_int i and nonce = i + 1 in
    let request_hash =
      Journal.request_digest ~ledger_uri:(Ledger.uri ledger) ~kind_tag:"normal"
        ~payload ~clues ~client_ts ~nonce
    in
    let signature =
      Crypto_profile.sign_pure crypto ~priv ~pub:member.Roles.pub request_hash
    in
    (payload, clues, client_ts, nonce, signature)
  in
  let commit first n =
    let i = ref first in
    while !i < first + n do
      let k = min 32 (first + n - !i) in
      (match
         Ledger.append_signed_batch ~pool:Ledger_par.Domain_pool.sequential
           ledger ~member_id:member.Roles.id
           (List.init k (fun j -> entry (!i + j)))
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "batch rejected: %s" e);
      i := !i + k
    done
  in
  let words () = Obj.reachable_words (Obj.repr ledger) in
  commit 0 warm_up;
  let before = words () in
  commit warm_up measured;
  float_of_int (words () - before) /. float_of_int measured

let check_resident label ~bound words =
  if words > bound then
    Alcotest.failf "%s: %.1f resident words per entry, bound %.0f" label words
      bound

let test_resident_unique_1k () =
  check_resident "unique clues, 1 KiB payloads" ~bound:395.
    (resident_words_per_entry ~payload:1024
       ~clue:(Printf.sprintf "acct/%08d") ())

let test_resident_unique_256 () =
  check_resident "unique clues, 256 B payloads" ~bound:289.
    (resident_words_per_entry ~payload:256
       ~clue:(Printf.sprintf "acct/%08d") ())

let test_resident_shared_256 () =
  check_resident "16 clues, 256 B payloads" ~bound:168.
    (resident_words_per_entry ~payload:256
       ~clue:(fun i -> Printf.sprintf "acct/%02d" (i mod 16)) ())

(* The structures behind the gap: a π_c held as its 64-byte encoding
   (10 words; a record of two limb arrays took 37), a clue's skip list
   sized to the levels it uses (41 words for one element; 24-level head
   and finger arrays took 128), a clue's CM-Tree2 with one digest array
   per level it has reached (8, 17 and 33 words empty, with one and with
   two leaves; eager 8-slot levels of option-boxed digests took 21, 29
   and 84), and a CM-Tree1 key held as its 64 hex digits in an
   option-free leaf (26 words; an int-array path in option-boxed nodes
   took 79). *)
let test_resident_units () =
  let priv, _ = Ecdsa.generate ~seed:"resident" in
  let signature = Ecdsa.sign priv (Hash.digest_string "resident") in
  let sig_words = Obj.reachable_words (Obj.repr signature) in
  if sig_words > 12 then
    Alcotest.failf "one signature holds %d words, bound 12" sig_words;
  let sl = Clue_skiplist.create () in
  Clue_skiplist.append sl 0;
  let sl_words = Obj.reachable_words (Obj.repr sl) in
  if sl_words > 48 then
    Alcotest.failf "a one-element cSL holds %d words, bound 48" sl_words;
  let bounded what bound x =
    let n = Obj.reachable_words (Obj.repr x) in
    if n > bound then Alcotest.failf "%s holds %d words, bound %d" what n bound
  in
  let shrubs = Shrubs.create () in
  bounded "an empty Shrubs" 9 shrubs;
  ignore (Shrubs.append shrubs (Hash.digest_string "leaf 0"));
  bounded "a 1-leaf Shrubs" 19 shrubs;
  ignore (Shrubs.append shrubs (Hash.digest_string "leaf 1"));
  bounded "a 2-leaf Shrubs" 36 shrubs;
  let trie = Mpt.create () in
  Mpt.insert_string trie ~key:"acct/00000000" (Bytes.of_string "8 bytes!");
  bounded "a one-key Mpt" 29 trie

(* Minor words per Wire digest: the input is written into the domain's
   reusable writer and hashed where it lies, with the domain's SHA-256
   context, so a 1 KiB request digest allocates 29 words: the closure
   over its fields and [finalize]'s state copy and output.  A copy of
   the input would add ~130 words (172 were counted with one), a fresh
   context ~85.  Counted over 64 digests on fixed inputs, so it repeats
   exactly; the bound is the figure plus about a third. *)
let test_digest_allocation_bound () =
  let payload = Bytes.make 1024 'd' in
  let digest nonce =
    Journal.request_digest ~ledger_uri:"ledger://digest-bound"
      ~kind_tag:"normal" ~payload ~clues:[ "acct/00000001" ]
      ~client_ts:7L ~nonce
  in
  ignore (digest 0);
  let before = Gc.minor_words () in
  for nonce = 1 to 64 do
    ignore (Sys.opaque_identity (digest nonce))
  done;
  let words = (Gc.minor_words () -. before) /. 64. in
  if words > 40. then
    Alcotest.failf "request digest of 1 KiB: %.0f minor words, bound 40" words

let suite =
  [ tc "golden: every entry point, system journal and reload" `Quick
      test_commit_path_golden;
    tc "minor words per committed entry are bounded" `Quick
      test_batch_allocation_bound;
    tc "resident words: unique clues, 1 KiB payloads" `Quick
      test_resident_unique_1k;
    tc "resident words: unique clues, 256 B payloads" `Quick
      test_resident_unique_256;
    tc "resident words: 16 clues, 256 B payloads" `Quick
      test_resident_shared_256;
    tc "resident words: one signature, one-element cSL" `Quick
      test_resident_units;
    tc "minor words per wire digest are bounded" `Quick
      test_digest_allocation_bound ]
