(* Tests for remote replication: an external auditor pulls the whole
   ledger over bytes, gets a verified replica, audits it locally — and a
   lying transport is refused. *)

open Ledger_crypto
open Ledger_storage
open Ledger_core
open Ledger_timenotary

let tc = Alcotest.test_case

let fresh_dir () =
  let d = Filename.temp_file "replica" "pull" in
  Sys.remove d;
  d

let build_remote () =
  let clock = Clock.create () in
  let pool = Tsa.pool [ Tsa.create ~endorse_rtt_ms:1. ~clock "r" ] in
  let tl = T_ledger.create ~clock ~tsa:pool () in
  let config =
    { Ledger.default_config with name = "remote"; block_size = 4; fam_delta = 3;
      crypto = Crypto_profile.Real }
  in
  let ledger = Ledger.create ~config ~t_ledger:tl ~tsa:pool ~clock () in
  let user, key = Ledger.new_member ledger ~name:"ruser" ~role:Roles.Regular_user in
  let dba, dba_key = Ledger.new_member ledger ~name:"rdba" ~role:Roles.Dba in
  let reg, reg_key = Ledger.new_member ledger ~name:"rreg" ~role:Roles.Regulator in
  for i = 0 to 9 do
    Clock.advance_ms clock 50.;
    ignore
      (Ledger.append ledger ~member:user ~priv:key
         ~clues:[ "rc" ^ string_of_int (i mod 2) ]
         (Bytes.of_string (Printf.sprintf "remote %d" i)))
  done;
  Clock.advance_ms clock 1100.;
  (match Ledger.anchor_via_t_ledger ledger with Ok _ -> () | Error _ -> assert false);
  Ledger.seal_block ledger;
  (clock, ledger, config, (tl, pool), (dba, dba_key), (reg, reg_key))

let test_pull_and_audit () =
  let clock, remote, config, (tl, pool), _, _ = build_remote () in
  let transport = Service.handle remote in
  match
    Replica.pull_verbose ~transport ~policy:Transport.no_retry ~config
      ~t_ledger:tl ~tsa:pool ~clock ~scratch_dir:(fresh_dir ()) ()
  with
  | Error e -> Alcotest.fail (Replica.error_to_string e)
  | Ok (replica, _) ->
      Alcotest.(check int) "size" (Ledger.size remote) (Ledger.size replica);
      Alcotest.(check bool) "same commitment" true
        (Hash.equal (Ledger.commitment remote) (Ledger.commitment replica));
      Alcotest.(check bool) "blocks match" true
        (Ledger.block_count remote = Ledger.block_count replica);
      (* the auditor audits the *replica*, never touching the remote *)
      let report = Audit.run replica in
      Alcotest.(check bool) "replica audit passes" true report.Audit.ok;
      (* clue verification works on the replica *)
      Alcotest.(check bool) "clue verify on replica" true
        (Ledger.verify_clue_server replica ~clue:"rc1");
      (* range queries answer from the replica's rebuilt query index *)
      Scan_check.check_same_index ~origin:remote ~prefix:"rc" replica

let test_pull_detects_lying_transport () =
  let clock, remote, config, (tl, pool), _, _ = build_remote () in
  (* a MITM that flips a byte inside journal responses *)
  let tamper response =
    if Bytes.length response > 60 then begin
      let b = Bytes.copy response in
      let off = Bytes.length b - 20 in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x10));
      b
    end
    else response
  in
  let evil_transport req =
    let resp = Service.handle remote req in
    match Service.decode_request req with
    | Some (Service.Get_journal _) -> tamper resp
    | _ -> resp
  in
  (match
     Replica.pull_verbose ~transport:evil_transport
       ~policy:Transport.no_retry ~config ~t_ledger:tl ~tsa:pool ~clock
       ~scratch_dir:(fresh_dir ()) ()
   with
  | Ok _ -> Alcotest.fail "tampered journals accepted"
  | Error _ -> ());
  (* a service lying about its identity is refused *)
  match
    Replica.pull_verbose ~transport:(Service.handle remote)
      ~policy:Transport.no_retry
      ~config:{ config with Ledger.name = "other" } ~t_ledger:tl ~tsa:pool
      ~clock ~scratch_dir:(fresh_dir ()) ()
  with
  | Ok _ -> Alcotest.fail "name mismatch accepted"
  | Error _ -> ()

let test_pull_after_mutations () =
  let clock, remote, config, (tl, pool), dba, reg = build_remote () in
  (match
     Ledger.occult remote ~target_jsn:2 ~mode:Ledger.Sync
       ~signers:[ dba; reg ] ~reason:"pii"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match
    Replica.pull_verbose ~transport:(Service.handle remote)
      ~policy:Transport.no_retry ~config ~t_ledger:tl ~tsa:pool ~clock
      ~scratch_dir:(fresh_dir ()) ()
  with
  | Error e -> Alcotest.fail (Replica.error_to_string e)
  | Ok (replica, _) ->
      Alcotest.(check bool) "occulted journal erased in replica" true
        (Ledger.payload replica 2 = None);
      Alcotest.(check bool) "occult bit replicated" true
        (Ledger.is_occulted replica 2);
      Alcotest.(check bool) "replica audit (Protocol 2)" true
        (Audit.run replica).Audit.ok

let suite =
  [
    tc "pull and audit" `Slow test_pull_and_audit;
    tc "lying transport refused" `Slow test_pull_detects_lying_transport;
    tc "pull after occult" `Slow test_pull_after_mutations;
  ]
