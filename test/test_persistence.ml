(* Tests for ledger persistence and recovery: full round trips including
   occult/purge erasure, receipt survival, and tamper-refusal on load. *)

open Ledger_crypto
open Ledger_storage
open Ledger_core
open Ledger_timenotary

let tc = Alcotest.test_case

let fresh_dir () =
  let d = Filename.temp_file "ledgerdb" "snap" in
  Sys.remove d;
  d

let build () =
  let clock = Clock.create () in
  let pool = Tsa.pool [ Tsa.create ~endorse_rtt_ms:1. ~clock "t" ] in
  let tl = T_ledger.create ~clock ~tsa:pool () in
  let config =
    { Ledger.default_config with name = "persist"; block_size = 4;
      fam_delta = 3; crypto = Crypto_profile.default_simulated }
  in
  let ledger = Ledger.create ~config ~t_ledger:tl ~tsa:pool ~clock () in
  let user, key = Ledger.new_member ledger ~name:"user" ~role:Roles.Regular_user in
  let dba, dba_key = Ledger.new_member ledger ~name:"dba" ~role:Roles.Dba in
  let reg, reg_key = Ledger.new_member ledger ~name:"reg" ~role:Roles.Regulator in
  let receipts =
    List.init 14 (fun i ->
        Clock.advance_ms clock 100.;
        Ledger.append ledger ~member:user ~priv:key
          ~clues:[ "c" ^ string_of_int (i mod 2) ]
          (Bytes.of_string (Printf.sprintf "record %d" i)))
  in
  Clock.advance_ms clock 1100.;
  (match Ledger.anchor_via_t_ledger ledger with Ok _ -> () | Error _ -> assert false);
  (ledger, config, receipts, (user, key), (dba, dba_key), (reg, reg_key), (tl, pool, clock))

(* The T-Ledger and TSA pool are public services that outlive the ledger
   process, so a reload reattaches to the same instances. *)
let reload ?config (tl, pool, clock) dir =
  let config =
    Option.value config
      ~default:
        { Ledger.default_config with name = "persist"; block_size = 4;
          fam_delta = 3; crypto = Crypto_profile.default_simulated }
  in
  Ledger.load ~config ~t_ledger:tl ~tsa:pool ~clock ~dir ()

let test_roundtrip () =
  let ledger, config, receipts, _, _, _, notary = build () in
  let dir = fresh_dir () in
  Ledger.save ledger ~dir;
  match reload ~config notary dir with
  | Error e -> Alcotest.fail e
  | Ok restored ->
      Alcotest.(check int) "size" (Ledger.size ledger) (Ledger.size restored);
      Alcotest.(check bool) "commitment preserved" true
        (Hash.equal (Ledger.commitment ledger) (Ledger.commitment restored));
      Alcotest.(check int) "blocks" (Ledger.block_count ledger)
        (Ledger.block_count restored);
      Alcotest.(check (option string)) "payload intact" (Some "record 5")
        (Option.map Bytes.to_string (Ledger.payload restored 5));
      Alcotest.(check int) "clue index rebuilt" 7
        (Ledger.clue_entries restored "c1");
      (* proofs still verify on the restored ledger *)
      let p = Ledger.get_proof restored 9 in
      Alcotest.(check bool) "existence proof" true
        (Ledger.verify_existence restored ~jsn:9 ~payload_digest:None p);
      (* receipts issued before the save still verify: block hashes and the
         LSP key survived *)
      let r = List.nth receipts 3 in
      Alcotest.(check bool) "old receipt verifies" true
        (Ledger.verify_receipt restored r);
      Alcotest.(check bool) "old receipt tx matches" true
        (Hash.equal r.Receipt.tx_hash (Ledger.tx_hash_of restored r.Receipt.jsn));
      (* replay rebuilt the query index too *)
      Scan_check.check_same_index ~origin:ledger ~prefix:"c" restored

let test_roundtrip_with_mutations () =
  let ledger, config, _, (user, key), (dba, dba_key), (reg, reg_key), notary =
    build ()
  in
  ignore user;
  ignore key;
  (* occult journal 2 *)
  (match
     Ledger.occult ledger ~target_jsn:2 ~mode:Ledger.Sync
       ~signers:[ (dba, dba_key); (reg, reg_key) ] ~reason:"pii"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* purge the first 6 journals, keeping journal 4 *)
  let affected = Ledger.affected_members ledger ~upto_jsn:6 in
  let signers =
    (dba, dba_key)
    :: List.map
         (fun (m : Roles.member) ->
           if m.Roles.name = "user" then (m, key) else Alcotest.fail "member?")
         affected
  in
  (match
     Ledger.purge ledger
       ~request:{ Ledger.upto_jsn = 6; survivors = [ 4 ]; erase_fam_nodes = false }
       ~signers
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let dir = fresh_dir () in
  Ledger.save ledger ~dir;
  match reload ~config notary dir with
  | Error e -> Alcotest.fail e
  | Ok restored ->
      (* erasures survive the round trip *)
      Alcotest.(check bool) "occulted still erased" true
        (Ledger.payload restored 2 = None);
      Alcotest.(check bool) "occult bit restored" true
        (Ledger.is_occulted restored 2);
      Alcotest.(check bool) "purged still erased" true
        (Ledger.payload restored 3 = None);
      Alcotest.(check (option string)) "survivor restored" (Some "record 4")
        (Option.map Bytes.to_string (Ledger.read_survivor restored 4));
      Alcotest.(check bool) "pseudo genesis restored" true
        (Ledger.pseudo_genesis restored <> None);
      Scan_check.check_same_index ~origin:ledger ~prefix:"c" restored;
      (* the restored ledger still passes a Dasein audit *)
      let report = Audit.run restored in
      if not report.Audit.ok then
        Alcotest.fail (Format.asprintf "%a" Audit.pp_report report)

let test_load_refuses_tampered_snapshot () =
  let ledger, config, _, _, _, _, notary = build () in
  let dir = fresh_dir () in
  Ledger.save ledger ~dir;
  (* flip one byte inside a journal record, at several offsets *)
  let path = Filename.concat dir "journals.ldb" in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let original = Bytes.create len in
  really_input ic original 0 len;
  close_in ic;
  List.iter
    (fun off ->
      let data = Bytes.copy original in
      Bytes.set data off (Char.chr (Char.code (Bytes.get data off) lxor 0x40));
      let oc = open_out_bin path in
      output_bytes oc data;
      close_out oc;
      match reload ~config notary dir with
      | Ok _ -> Alcotest.failf "tampered snapshot accepted (offset %d)" off
      | Error _ -> ())
    [ len / 4; len / 2; (3 * len) / 4; 40 ];
  (* restore the original for the missing-dir check below *)
  let oc = open_out_bin path in
  output_bytes oc original;
  close_out oc;
  (* missing directory errors cleanly *)
  match reload ~config notary (fresh_dir ()) with
  | Ok _ -> Alcotest.fail "missing snapshot accepted"
  | Error _ -> ()

let test_continue_after_load () =
  let ledger, config, _, _, _, _, ((_, _, clock) as notary) = build () in
  let dir = fresh_dir () in
  Ledger.save ledger ~dir;
  Clock.advance_sec clock 10. (* downtime between save and reload *);
  match reload ~config notary dir with
  | Error e -> Alcotest.fail e
  | Ok restored ->
      (* the restored ledger accepts new appends and stays consistent *)
      let user = Option.get (Roles.find_by_name (Ledger.registry restored) "user") in
      (* new_member seeds keys with "<config.name>:<member name>" *)
      let key, pub = Ecdsa.generate ~seed:"persist:user" in
      Alcotest.(check bool) "re-derived key matches registry" true
        (Hash.equal (Ecdsa.public_key_id pub) user.Roles.id);
      let before = Ledger.size restored in
      let r =
        Ledger.append restored ~member:user ~priv:key
          ~clues:[ "c0" ] (Bytes.of_string "after reload")
      in
      Alcotest.(check int) "jsn continues" before r.Receipt.jsn;
      let p = Ledger.get_proof restored r.Receipt.jsn in
      Alcotest.(check bool) "new journal provable" true
        (Ledger.verify_existence restored ~jsn:r.Receipt.jsn
           ~payload_digest:None p);
      let report = Audit.run restored in
      Alcotest.(check bool) "audit after continuation" true report.Audit.ok

(* Stream-store round trip: persist, reopen, erase, persist, reopen —
   indices, byte accounting and page counts must all survive both
   generations. *)
let test_stream_store_persist_erase_cycle () =
  let dir = fresh_dir () in
  let store = Stream_store.create ~dir () in
  let s = Stream_store.stream store "gen" in
  for i = 0 to 9 do
    ignore (Stream_store.append s (Bytes.of_string (Printf.sprintf "v%02d" i)))
  done;
  Stream_store.persist store;
  let gen1, _ = Stream_store.recover ~dir () in
  let s1 = Stream_store.stream gen1 "gen" in
  Alcotest.(check int) "gen1 length" 10 (Stream_store.length s1);
  Stream_store.erase s1 3;
  Stream_store.erase s1 7;
  let bytes_after_erase = Stream_store.total_bytes s1 in
  let pages_after_erase = Stream_store.page_count s1 in
  let live_after_erase = Stream_store.live_records s1 in
  Stream_store.persist gen1;
  let gen2, reports = Stream_store.recover ~dir () in
  let s2 = Stream_store.stream gen2 "gen" in
  Alcotest.(check int) "gen2 length" 10 (Stream_store.length s2);
  Alcotest.(check int) "total_bytes preserved" bytes_after_erase
    (Stream_store.total_bytes s2);
  Alcotest.(check int) "page_count preserved" pages_after_erase
    (Stream_store.page_count s2);
  Alcotest.(check int) "live_records preserved" live_after_erase
    (Stream_store.live_records s2);
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "erasure of %d preserved" i)
        true
        (Stream_store.is_erased s2 i))
    [ 3; 7 ];
  Alcotest.(check (option string)) "survivor readable" (Some "v05")
    (Option.map Bytes.to_string (Stream_store.read_opt s2 5));
  Alcotest.(check bool) "second generation intact" true
    (List.for_all (fun r -> r.Stream_store.damage = Stream_store.Intact) reports)

(* A crash mid-save leaves a torn tail: the strict loader refuses with a
   diagnostic, the recovering loader replays the intact prefix and
   reports exactly what it salvaged. *)
let test_torn_tail_recovery_report () =
  let ledger, config, _, _, _, _, notary = build () in
  let dir = fresh_dir () in
  Ledger.save ledger ~dir;
  let size = Ledger.size ledger in
  let path = Filename.concat dir "journals.ldb" in
  let file_len =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    close_in ic;
    n
  in
  Framing.truncate_file path ~keep:(file_len - 5);
  let tl, pool, clock = notary in
  (match reload ~config notary dir with
  | Ok _ -> Alcotest.fail "torn snapshot accepted by strict load"
  | Error msg ->
      Alcotest.(check bool) "strict refusal names the torn tail" true
        (String.length msg > 0));
  match
    Ledger.load_verbose ~config ~t_ledger:tl ~tsa:pool ~recover:true ~clock
      ~dir ()
  with
  | Error e -> Alcotest.fail e
  | Ok (restored, report) ->
      Alcotest.(check int) "last record lost" (size - 1)
        report.Ledger.replayed;
      Alcotest.(check bool) "torn tail reported" true report.Ledger.torn_tail;
      Alcotest.(check bool) "checkpoint partial" true
        (report.Ledger.checkpoint = `Partial);
      Alcotest.(check int) "ledger shrunk to the prefix" (size - 1)
        (Ledger.size restored);
      Alcotest.(check (option string)) "prefix payload intact"
        (Some "record 0")
        (Option.map Bytes.to_string (Ledger.payload restored 0));
      (* a re-save of the recovered prefix loads strictly again *)
      let dir2 = fresh_dir () in
      Ledger.save restored ~dir:dir2;
      match reload ~config notary dir2 with
      | Error e -> Alcotest.fail ("re-saved prefix refused: " ^ e)
      | Ok again ->
          Alcotest.(check int) "re-saved prefix size" (size - 1)
            (Ledger.size again)

(* A complete frame with a bad checksum is tampering, not a crash: both
   loaders refuse, and the diagnostic names the first bad jsn. *)
let test_corrupt_record_names_first_bad_jsn () =
  let ledger, config, _, _, _, _, notary = build () in
  let dir = fresh_dir () in
  Ledger.save ledger ~dir;
  let path = Filename.concat dir "journals.ldb" in
  (* find the on-disk offset of record 3 by walking the frames *)
  let target = 3 in
  let offset =
    let offsets, _ =
      Framing.fold path ~init:[] (fun offsets ~offset _ -> Some (offset :: offsets))
    in
    match List.nth_opt (List.rev offsets) target with
    | Some off -> off
    | None -> Alcotest.fail "snapshot unexpectedly short"
  in
  (* flip one payload byte inside that frame (magic 4 + length 4 = +8) *)
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let data = Bytes.create len in
  really_input ic data 0 len;
  close_in ic;
  let at = offset + 8 + 5 in
  Bytes.set data at (Char.chr (Char.code (Bytes.get data at) lxor 0x01));
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc;
  let tl, pool, clock = notary in
  let expect_first_bad_jsn = function
    | Ok _ -> Alcotest.fail "corrupt record accepted"
    | Error msg ->
        let mentions needle =
          let nl = String.length needle and ml = String.length msg in
          let rec at i = i + nl <= ml && (String.sub msg i nl = needle || at (i + 1)) in
          at 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "diagnostic names jsn %d: %s" target msg)
          true
          (mentions (Printf.sprintf "first bad jsn %d" target))
  in
  expect_first_bad_jsn (reload ~config notary dir);
  (* corruption is never recoverable: ~recover:true must refuse too *)
  expect_first_bad_jsn
    (Result.map fst
       (Ledger.load_verbose ~config ~t_ledger:tl ~tsa:pool ~recover:true
          ~clock ~dir ()))

let base_suite =
  [
    tc "save/load roundtrip" `Quick test_roundtrip;
    tc "roundtrip with occult+purge" `Quick test_roundtrip_with_mutations;
    tc "tampered snapshot refused" `Quick test_load_refuses_tampered_snapshot;
    tc "append after load" `Quick test_continue_after_load;
    tc "stream store persist/erase cycle" `Quick
      test_stream_store_persist_erase_cycle;
    tc "torn tail recovery report" `Quick test_torn_tail_recovery_report;
    tc "corrupt record names first bad jsn" `Quick
      test_corrupt_record_names_first_bad_jsn;
  ]

let test_roundtrip_with_member_ca () =
  let clock = Clock.create () in
  let ca_priv, ca_pub = Ecdsa.generate ~seed:"persist-ca" in
  let config =
    { Ledger.default_config with name = "persist-ca"; block_size = 4;
      fam_delta = 3; crypto = Crypto_profile.default_simulated;
      member_ca = Some ca_pub }
  in
  let ledger = Ledger.create ~config ~clock () in
  let m, k = Ledger.new_member ~ca_priv ledger ~name:"cmember" ~role:Roles.Regular_user in
  for i = 0 to 5 do
    Clock.advance_ms clock 10.;
    ignore (Ledger.append ledger ~member:m ~priv:k (Bytes.of_string (string_of_int i)))
  done;
  let dir = fresh_dir () in
  Ledger.save ledger ~dir;
  match Ledger.load ~config ~clock ~dir () with
  | Error e -> Alcotest.fail e
  | Ok restored ->
      Alcotest.(check bool) "certificate restored" true
        (Roles.certificate_of (Ledger.registry restored) m.Roles.id <> None);
      Alcotest.(check bool) "CA ledger audits after reload" true
        (Audit.run restored).Audit.ok

let ca_persist_suite =
  [ tc "roundtrip with member CA" `Quick test_roundtrip_with_member_ca ]

(* --- golden snapshot ---------------------------------------------------- *)

(* [golden_snapshot/] is a committed [Ledger.save] of [golden_origin], a
   small ledger holding every journal kind: normal journals with clues,
   T-Ledger and TSA time anchors, a sync and an async occult (erased by
   [reorganize]) and a purge with a survivor, followed by an unsealed
   tail.  [golden_snapshot.expected] records what the origin answered.
   On a mismatch the test writes the computed snapshot to
   [golden_snapshot.actual/] and the computed values to
   [golden_snapshot.expected.actual] beside the running test binary;
   copy them over the checked-in fixture only for an intended format
   change. *)
let golden_dir = "golden_snapshot"
let golden_expected = "golden_snapshot.expected"
let snapshot_files =
  Snapshot.[ journals_file; members_file; blocks_file; survivors_file; meta_file ]

let golden_config =
  { Ledger.default_config with name = "golden"; block_size = 4; fam_delta = 3;
    crypto = Crypto_profile.default_simulated }

let golden_origin () =
  let clock = Clock.create () in
  let pool = Tsa.pool [ Tsa.create ~endorse_rtt_ms:1. ~clock "g" ] in
  let tl = T_ledger.create ~clock ~tsa:pool () in
  let ledger =
    Ledger.create ~config:golden_config ~t_ledger:tl ~tsa:pool ~clock ()
  in
  let user, key =
    Ledger.new_member ledger ~name:"guser" ~role:Roles.Regular_user
  in
  let dba = Ledger.new_member ledger ~name:"gdba" ~role:Roles.Dba in
  let reg = Ledger.new_member ledger ~name:"greg" ~role:Roles.Regulator in
  let append i =
    Clock.advance_ms clock 100.;
    ignore
      (Ledger.append ledger ~member:user ~priv:key
         ~clues:(("acct-" ^ string_of_int (i mod 3))
                 :: (if i mod 4 = 0 then [ "item-" ^ string_of_int i ] else []))
         (Bytes.of_string (Printf.sprintf "golden %d" i)))
  in
  let ok what = function
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  for i = 0 to 9 do append i done;
  Clock.advance_ms clock 1100.;
  (match Ledger.anchor_via_t_ledger ledger with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "T-Ledger anchor refused");
  ok "sync occult"
    (Ledger.occult ledger ~target_jsn:1 ~mode:Ledger.Sync ~signers:[ dba; reg ]
       ~reason:"pii");
  ok "async occult"
    (Ledger.occult ledger ~target_jsn:8 ~mode:Ledger.Async ~signers:[ dba; reg ]
       ~reason:"court order");
  Alcotest.(check int) "reorganize erased the async target" 1
    (Ledger.reorganize ledger);
  ok "purge"
    (Ledger.purge ledger
       ~request:
         { Ledger.upto_jsn = 6; survivors = [ 4 ]; erase_fam_nodes = false }
       ~signers:[ dba; (user, key) ]);
  for i = 10 to 12 do append i done;
  ignore (Ledger.anchor_via_tsa ledger);
  append 13;
  (ledger, clock)

(* The recorded values: size, commitment, clue root, query root and every
   block, one per line. *)
let golden_values ledger =
  Printf.sprintf "size %d" (Ledger.size ledger)
  :: Printf.sprintf "commitment %s" (Hash.to_hex (Ledger.commitment ledger))
  :: Printf.sprintf "clue_root %s"
       (Hash.to_hex (Ledger_cmtree.Cm_tree.root_hash (Ledger.cm_tree ledger)))
  :: Printf.sprintf "query_root %s" (Hash.to_hex (Ledger.query_root ledger))
  :: List.map
       (fun (b : Block.t) ->
         Printf.sprintf "block %d %d %d %s" b.Block.height b.Block.start_jsn
           b.Block.count (Hash.to_hex (Block.hash b)))
       (Ledger.blocks ledger)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let snapshot_differs ~dir =
  List.filter
    (fun f ->
      read_file (Filename.concat dir f)
      <> read_file (Filename.concat golden_dir f))
    snapshot_files

let test_golden_snapshot () =
  let origin, clock = golden_origin () in
  let values = golden_values origin in
  let recorded =
    String.split_on_char '\n' (String.trim (read_file golden_expected))
  in
  let dir = fresh_dir () in
  Ledger.save origin ~dir;
  let differing = snapshot_differs ~dir in
  if differing <> [] || values <> recorded then begin
    let actual = golden_dir ^ ".actual" in
    if not (Sys.file_exists actual) then Sys.mkdir actual 0o755;
    List.iter
      (fun f ->
        Out_channel.with_open_bin (Filename.concat actual f) (fun oc ->
            output_string oc (read_file (Filename.concat dir f))))
      snapshot_files;
    Out_channel.with_open_bin (golden_expected ^ ".actual") (fun oc ->
        output_string oc (String.concat "\n" values ^ "\n"));
    Alcotest.failf "origin no longer matches the golden fixture (%s)"
      (String.concat ", "
         ((if values <> recorded then [ golden_expected ] else []) @ differing))
  end;
  let check_values what ledger =
    Alcotest.(check (list string)) what recorded (golden_values ledger)
  in
  (* 1. loading the committed fixture reproduces every recorded value *)
  (match Ledger.load ~config:golden_config ~clock ~dir:golden_dir () with
  | Error e -> Alcotest.failf "golden snapshot refused: %s" e
  | Ok loaded ->
      check_values "loaded fixture" loaded;
      Scan_check.check_same_index ~origin ~prefix:"acct-" loaded;
      (* 2. re-saving the loaded ledger gives the same bytes *)
      let again = fresh_dir () in
      Ledger.save loaded ~dir:again;
      Alcotest.(check (list string)) "re-saved files differ" []
        (snapshot_differs ~dir:again));
  (* 3. a replica pulled from the origin loads to the same values *)
  match
    Replica.pull_verbose ~transport:(Service.handle origin)
      ~policy:Transport.no_retry ~config:golden_config ~clock
      ~scratch_dir:(fresh_dir ()) ()
  with
  | Error e ->
      Alcotest.failf "replica of the golden origin refused: %s"
        (Replica.error_to_string e)
  | Ok (replica, _) ->
      check_values "replica" replica;
      Scan_check.check_same_index ~origin ~prefix:"acct-" replica

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* A fresh copy of the committed fixture. *)
let copy_golden () =
  let dir = fresh_dir () in
  Sys.mkdir dir 0o755;
  List.iter
    (fun f ->
      write_file (Filename.concat dir f)
        (read_file (Filename.concat golden_dir f)))
    snapshot_files;
  dir

let load_golden ?(recover = false) dir =
  Ledger.load_verbose ~config:golden_config ~recover ~clock:(Clock.create ())
    ~dir ()

(* Every single-bit flip of the four small files is refused, strictly
   and with recovery on: their frames are CRC-checked and only the
   journals file may end in a recoverable torn tail. *)
let test_golden_bit_flips_refused () =
  let dir = copy_golden () in
  (match load_golden dir with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unflipped copy refused: %s" e);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let original = read_file path in
      for bit = 0 to (8 * String.length original) - 1 do
        let b = Bytes.of_string original in
        let i = bit / 8 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
        write_file path (Bytes.to_string b);
        List.iter
          (fun recover ->
            match load_golden ~recover dir with
            | Error _ -> ()
            | Ok _ ->
                Alcotest.failf "%s with bit %d flipped loads (recover %b)" f
                  bit recover)
          [ false; true ]
      done;
      write_file path original)
    Snapshot.[ members_file; blocks_file; meta_file; survivors_file ]

(* A blocks file that lost its last frame ends cleanly at a frame
   boundary; only the recorded block count can tell. *)
let test_golden_lost_block_refused () =
  let dir = copy_golden () in
  let path = Filename.concat dir Snapshot.blocks_file in
  let last, _ = Framing.fold path ~init:0 (fun _ ~offset _ -> Some offset) in
  Framing.truncate_file path ~keep:last;
  List.iter
    (fun recover ->
      match load_golden ~recover dir with
      | Ok _ -> Alcotest.failf "lost block loads (recover %b)" recover
      | Error e ->
          Alcotest.(check bool) ("names the block count: " ^ e) true
            (String.starts_with ~prefix:"block count" e))
    [ false; true ]

(* Every checkpoint field the replay can reproduce is checked: a meta
   frame with any one of them changed is refused, and so is a meta file
   in the old [key=value] text layout. *)
let test_golden_checkpoint_fields_checked () =
  let dir = copy_golden () in
  let c = Snapshot.read_checkpoint (Filename.concat dir Snapshot.meta_file) in
  let with_meta c =
    Snapshot.write ~dir Snapshot.meta_file (fun oc ->
        Snapshot.output_checkpoint oc c);
    load_golden dir
  in
  (match with_meta c with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "re-written checkpoint refused: %s" e);
  let other h = Hash.digest_bytes (Hash.to_bytes h) in
  List.iter
    (fun (what, c) ->
      match with_meta c with
      | Ok _ -> Alcotest.failf "a checkpoint with a wrong %s loads" what
      | Error _ -> ())
    Snapshot.
      [
        ("name", { c with name = "other" });
        ("size", { c with size = c.size - 1 });
        ("block count", { c with block_count = c.block_count - 1 });
        ("commitment", { c with commitment = other c.commitment });
        ("clue root", { c with clue_root = other c.clue_root });
        ("pseudo-genesis", { c with pseudo_genesis = None });
        ( "pseudo-genesis",
          { c with pseudo_genesis = Option.map succ c.pseudo_genesis } );
      ];
  write_file
    (Filename.concat dir Snapshot.meta_file)
    (Printf.sprintf "name=golden\nsize=%d\nnonce=%d\ncommitment=%s\n\
                     clue_root=%s\npseudo_genesis=-\n"
       c.Snapshot.size c.Snapshot.nonce
       (Hash.to_hex c.Snapshot.commitment)
       (Hash.to_hex c.Snapshot.clue_root));
  match load_golden dir with
  | Ok _ -> Alcotest.fail "a text meta.ldb loads"
  | Error _ -> ()

let golden_suite =
  [
    tc "golden snapshot: load, re-save, replica" `Quick test_golden_snapshot;
    tc "golden snapshot: every bit flip of the small files refused" `Quick
      test_golden_bit_flips_refused;
    tc "golden snapshot: a lost last block refused" `Quick
      test_golden_lost_block_refused;
    tc "golden snapshot: every checkpoint field checked" `Quick
      test_golden_checkpoint_fields_checked;
  ]

let suite = base_suite @ ca_persist_suite @ golden_suite
