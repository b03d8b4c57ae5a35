(* Sharded fleet tests: routing, super-root commitments, cross-shard
   verification, the routed service and the fleet replica.

   The two load-bearing properties are differential:
   - a 1-shard fleet commits a history byte-identical to a plain
     {!Ledger.t} driven with the same operations (same keys, same
     timestamps, same wire bytes), and
   - with N > 1 every committed entry verifies through
     {!Verify_api.verify_sharded} against the epoch super-root, and a
     purge/occult on one shard invalidates only that shard's cached
     verdicts. *)

open Ledger_crypto
open Ledger_storage
open Ledger_core
module SL = Ledger_shard.Sharded_ledger
module SR = Ledger_shard.Super_root
module SV = Ledger_shard.Verify_api
module SS = Ledger_shard.Sharded_service
module Router = Ledger_shard.Shard_router

let tc = Alcotest.test_case

let fleet_config ?(name = "fleet") shards =
  {
    SL.base =
      { Ledger.default_config with name; block_size = 4; fam_delta = 3;
        latency = Latency_model.free;
        crypto = Crypto_profile.Simulated { sign_us = 0.; verify_us = 0. } };
    shards;
  }

let payload_of i = Bytes.of_string (Printf.sprintf "shard-payload-%d" i)

(* --- router ----------------------------------------------------------------- *)

let test_router_deterministic () =
  let r = Router.create ~shards:4 in
  for i = 0 to 99 do
    let clues = [ "clue-" ^ string_of_int i ] in
    let payload = payload_of i in
    let a = Router.route r ~clues ~payload in
    Alcotest.(check int)
      (Printf.sprintf "stable route %d" i)
      a
      (Router.route r ~clues ~payload);
    Alcotest.(check bool) "in range" true (a >= 0 && a < 4)
  done;
  (* no clues: placement falls back to the payload digest, still stable *)
  let a = Router.route r ~clues:[] ~payload:(payload_of 1) in
  Alcotest.(check int) "payload route stable" a
    (Router.route r ~clues:[] ~payload:(payload_of 1));
  (* a single-shard fleet routes everything to shard 0 *)
  let one = Router.create ~shards:1 in
  Alcotest.(check int) "single shard" 0
    (Router.route one ~clues:[ "x" ] ~payload:(payload_of 0));
  Alcotest.check_raises "zero shards refused"
    (Invalid_argument "Shard_router.create: shards must be in [1,1024]")
    (fun () -> ignore (Router.create ~shards:0))

let test_router_spreads () =
  let shards = 8 in
  let r = Router.create ~shards in
  let hit = Array.make shards false in
  for i = 0 to 255 do
    hit.(Router.route_clue r ("spread-" ^ string_of_int i)) <- true
  done;
  Array.iteri
    (fun s h -> Alcotest.(check bool) (Printf.sprintf "shard %d hit" s) true h)
    hit

(* --- super-root ------------------------------------------------------------- *)

let mk_sealed ?(epoch = 3) n =
  SR.seal ~epoch ~at:99L
    (Array.init n (fun i -> (Hash.digest_string (Printf.sprintf "r%d" i), i * 7)))

let test_super_root_prove_verify () =
  let n = 5 in
  let sealed = mk_sealed n in
  let super = SR.commitment sealed in
  for s = 0 to n - 1 do
    let inc = SR.prove sealed ~shard:s in
    Alcotest.(check bool) (Printf.sprintf "shard %d included" s) true
      (SR.verify ~super inc);
    (* a different epoch's commitment must reject the same inclusion *)
    let other = SR.commitment (mk_sealed ~epoch:4 n) in
    Alcotest.(check bool) "wrong epoch rejected" false (SR.verify ~super:other inc);
    (* a tampered shard root must not chain to the super-root *)
    let forged = { inc with SR.shard_root = Hash.digest_string "forged" } in
    Alcotest.(check bool) "forged root rejected" false (SR.verify ~super forged)
  done;
  Alcotest.check_raises "empty fleet refused"
    (Invalid_argument "Super_root.seal: empty fleet") (fun () ->
      ignore (SR.seal ~epoch:0 ~at:0L [||]))

let test_super_root_codec () =
  let sealed = mk_sealed 4 in
  (match SR.decode_sealed (SR.encode_sealed sealed) with
  | None -> Alcotest.fail "sealed roundtrip failed"
  | Some s ->
      Alcotest.(check bool) "commitment survives" true
        (Hash.equal (SR.commitment sealed) (SR.commitment s));
      Alcotest.(check int) "epoch survives" sealed.SR.epoch s.SR.epoch);
  (* the decoder re-derives the tree: a frame whose announced root does
     not match its own leaves is refused, not half-trusted *)
  let raw = SR.encode_sealed sealed in
  Bytes.set raw (Bytes.length raw / 2)
    (Char.chr ((Char.code (Bytes.get raw (Bytes.length raw / 2)) + 1) land 0xff));
  (match SR.decode_sealed raw with
  | None -> ()
  | Some _ -> Alcotest.fail "tampered sealed frame accepted");
  let inc = SR.prove sealed ~shard:2 in
  match SR.decode_inclusion (SR.encode_inclusion inc) with
  | None -> Alcotest.fail "inclusion roundtrip failed"
  | Some i ->
      Alcotest.(check bool) "decoded inclusion verifies" true
        (SR.verify ~super:(SR.commitment sealed) i)

(* --- differential: 1-shard fleet == plain ledger --------------------------- *)

type op = Append of int * int | Seal

let op_to_string = function
  | Append (p, c) -> Printf.sprintf "Append(%d,%d)" p c
  | Seal -> "Seal"

let clues_of = function
  | 0 | 1 | 2 -> [ "k0" ]
  | 3 -> [ "k1" ]
  | 4 -> [ "k0"; "k1" ]
  | _ -> []

let prop_one_shard_equals_unsharded =
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
      QCheck.Gen.(
        list_size (int_range 5 40)
          (frequency
             [ (8, map2 (fun p c -> Append (p, c)) (int_bound 999) (int_bound 4));
               (2, return Seal) ]))
  in
  QCheck.Test.make ~name:"1-shard fleet == unsharded ledger" ~count:60 arb
    (fun ops ->
      let clock_a = Clock.create () in
      let a = Ledger.create ~config:Test_batch_diff.diff_config ~clock:clock_a () in
      let user_a, key_a =
        Ledger.new_member a ~name:"duser" ~role:Roles.Regular_user
      in
      let clock_b = Clock.create () in
      let fleet =
        SL.create
          ~config:{ SL.base = Test_batch_diff.diff_config; shards = 1 }
          ~clock:clock_b ()
      in
      let user_b, key_b = SL.new_member fleet ~name:"duser" ~role:Roles.Regular_user in
      List.iter
        (fun op ->
          match op with
          | Append (p, c) ->
              let payload = Test_batch_diff.payload_of p and clues = clues_of c in
              ignore (Ledger.append a ~member:user_a ~priv:key_a ~clues payload);
              ignore (SL.append fleet ~member:user_b ~priv:key_b ~clues payload)
          | Seal ->
              Ledger.seal_block a;
              (match SL.seal_epoch fleet with
              | Ok _ -> ()
              | Error e -> QCheck.Test.fail_report ("seal refused: " ^ e));
              Clock.advance_ms clock_a 5.;
              Clock.advance_ms clock_b 5.)
        ops;
      Ledger.seal_block a;
      (match SL.seal_epoch fleet with
      | Ok _ -> ()
      | Error e -> QCheck.Test.fail_report ("final seal refused: " ^ e));
      Test_batch_diff.check_equal_histories a (SL.shard fleet 0))

(* --- cross-shard verification ---------------------------------------------- *)

let build_fleet ?(name = "xshard") ?(entries = 30) shards =
  let clock = Clock.create () in
  let fleet = SL.create ~config:(fleet_config ~name shards) ~clock () in
  let user, key = SL.new_member fleet ~name:"xuser" ~role:Roles.Regular_user in
  let committed =
    List.init entries (fun i ->
        SL.append fleet ~member:user ~priv:key
          ~clues:[ "xc" ^ string_of_int i ]
          (payload_of i))
  in
  (clock, fleet, user, key, committed)

let test_cross_shard_verifies () =
  let shards = 3 in
  let _, fleet, _, _, committed = build_fleet shards in
  let sealed =
    match SL.seal_epoch fleet with
    | Ok s -> s
    | Error e -> Alcotest.fail ("seal refused: " ^ e)
  in
  let super = SR.commitment sealed in
  Alcotest.(check int) "all entries placed" 30 (SL.total_size fleet);
  List.iteri
    (fun i (shard, (r : Receipt.t)) ->
      let o =
        SV.verify_sharded fleet ~level:SV.Client ~shard
          (SV.Existence
             { jsn = r.Receipt.jsn;
               payload_digest = Some (Hash.digest_bytes (payload_of i)) })
      in
      Alcotest.(check bool) (Printf.sprintf "entry %d verifies" i) true
        o.SV.outcome.SV.ok;
      match o.SV.super with
      | Some s ->
          Alcotest.(check bool)
            (Printf.sprintf "entry %d pinned to super-root" i)
            true (Hash.equal s super)
      | None -> Alcotest.fail "verdict not pinned to the sealed epoch")
    committed;
  (* the composed proof objects round-trip the wire and replay *)
  for s = 0 to shards - 1 do
    if Ledger.size (SL.shard fleet s) > 0 then begin
      let proof =
        match SL.prove fleet ~shard:s ~jsn:0 with
        | Ok p -> p
        | Error e -> Alcotest.fail ("prove refused: " ^ e)
      in
      Alcotest.(check bool) "sharded proof verifies" true
        (SL.verify_proof fleet ~super proof);
      Alcotest.(check bool) "wrong super rejected" false
        (SL.verify_proof fleet ~super:(Hash.digest_string "not-the-root") proof);
      match SL.decode_sharded_proof (SL.encode_sharded_proof proof) with
      | None -> Alcotest.fail "sharded proof roundtrip failed"
      | Some p ->
          Alcotest.(check bool) "decoded proof verifies" true
            (SL.verify_proof fleet ~super p)
    end
  done

let test_prove_refused_past_seal () =
  let _, fleet, user, key, _ = build_fleet ~name:"stale" 2 in
  (match SL.prove fleet ~shard:0 ~jsn:0 with
  | Ok _ -> Alcotest.fail "proved with no sealed epoch"
  | Error _ -> ());
  (match SL.seal_epoch fleet with Ok _ -> () | Error e -> Alcotest.fail e);
  (* commit past the seal on one shard: its proofs must dangle no more *)
  let shard, _ =
    SL.append fleet ~member:user ~priv:key ~clues:[ "post-seal" ]
      (Bytes.of_string "past the seal")
  in
  (match SL.prove fleet ~shard ~jsn:0 with
  | Ok _ -> Alcotest.fail "proof served against a stale sealed root"
  | Error e ->
      Alcotest.(check bool) "error says reseal" true
        (String.length e > 0));
  (* resealing restores service *)
  (match SL.seal_epoch fleet with Ok _ -> () | Error e -> Alcotest.fail e);
  match SL.prove fleet ~shard ~jsn:0 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("prove after reseal refused: " ^ e)

(* --- per-shard epoch pinning ------------------------------------------------ *)

(* A mutation on one shard moves that shard past its sealed root: its
   verdicts lose the epoch pin while the other shard's keep it. *)
let test_mutation_invalidates_one_shard () =
  let clock = Clock.create () in
  let fleet = SL.create ~config:(fleet_config ~name:"mut" 2) ~clock () in
  let user, key = SL.new_member fleet ~name:"muser" ~role:Roles.Regular_user in
  let dba, dba_key = SL.new_member fleet ~name:"mdba" ~role:Roles.Dba in
  let reg, reg_key = SL.new_member fleet ~name:"mreg" ~role:Roles.Regulator in
  let committed =
    List.init 24 (fun i ->
        SL.append fleet ~member:user ~priv:key
          ~clues:[ "mc" ^ string_of_int i ]
          (payload_of i))
  in
  (match SL.seal_epoch fleet with Ok _ -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "both shards populated" true
    (Ledger.size (SL.shard fleet 0) > 1 && Ledger.size (SL.shard fleet 1) > 1);
  List.iter
    (fun (shard, (r : Receipt.t)) ->
      let o =
        SV.verify_sharded fleet ~level:SV.Client ~shard
          (SV.Existence { jsn = r.Receipt.jsn; payload_digest = None })
      in
      Alcotest.(check bool) "sealed entry verifies pinned" true
        (o.SV.outcome.SV.ok && o.SV.super <> None))
    committed;
  (* occult one journal on shard 0 *)
  (match
     Ledger.occult (SL.shard fleet 0) ~target_jsn:0 ~mode:Ledger.Sync
       ~signers:[ (dba, dba_key); (reg, reg_key) ]
       ~reason:"pii"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("occult refused: " ^ e));
  (* shard 0 has outrun its sealed root, so fresh verdicts there are no
     longer pinned to the stale epoch — shard 1's still are *)
  let jsn_of s =
    let _, (r : Receipt.t) = List.find (fun (sh, _) -> sh = s) committed in
    r.Receipt.jsn
  in
  let o0 =
    SV.verify_sharded fleet ~level:SV.Server ~shard:0
      (SV.Existence { jsn = jsn_of 0; payload_digest = None })
  in
  Alcotest.(check bool) "shard 0 still verifies" true o0.SV.outcome.SV.ok;
  Alcotest.(check bool) "shard 0 unpinned from stale epoch" true
    (o0.SV.super = None);
  let o1 =
    SV.verify_sharded fleet ~level:SV.Server ~shard:1
      (SV.Existence { jsn = jsn_of 1; payload_digest = None })
  in
  Alcotest.(check bool) "shard 1 still verifies" true o1.SV.outcome.SV.ok;
  Alcotest.(check bool) "shard 1 still pinned" true (o1.SV.super <> None)

(* --- routed service --------------------------------------------------------- *)

let test_service_roundtrip () =
  let clock = Clock.create () in
  (* the remote append path re-checks real client signatures, so this
     test runs the Real crypto profile like the unsharded service tests *)
  let config =
    let base = fleet_config ~name:"svc" 2 in
    { base with SL.base = { base.SL.base with Ledger.crypto = Crypto_profile.Real } }
  in
  let fleet = SL.create ~config ~clock () in
  let user, key = SL.new_member fleet ~name:"suser" ~role:Roles.Regular_user in
  let transport req = SS.handle fleet req in
  let client = SS.Client.create ~config ~member:user ~priv:key () in
  (match SS.Client.parse (transport (SS.Client.make_get_topology ())) with
  | Some (SS.Topology_r { name; shards }) ->
      Alcotest.(check string) "topology name" "svc" name;
      Alcotest.(check int) "topology shards" 2 shards
  | _ -> Alcotest.fail "bad topology response");
  let appended =
    List.init 12 (fun i ->
        Clock.advance_ms clock 10.;
        let shard, req =
          SS.Client.make_append client
            ~clues:[ "sc" ^ string_of_int i ]
            ~client_ts:(Clock.now clock) (payload_of i)
        in
        match SS.Client.parse_from_shard (transport req) with
        | Some (s, Service.Receipt_r r) ->
            Alcotest.(check int) "dispatcher agrees with client route" shard s;
            (s, r)
        | _ -> Alcotest.fail (Printf.sprintf "append %d not accepted" i))
  in
  let sealed =
    match SS.Client.parse (transport (SS.Client.make_seal_epoch ())) with
    | Some (SS.Sealed_r s) -> s
    | _ -> Alcotest.fail "seal over the wire failed"
  in
  (match SS.Client.parse (transport (SS.Client.make_get_super_root ())) with
  | Some (SS.Super_root_r (Some s)) ->
      Alcotest.(check bool) "latest super-root matches" true
        (Hash.equal (SR.commitment s) (SR.commitment sealed))
  | _ -> Alcotest.fail "no super-root announced");
  let shard, (r : Receipt.t) = List.hd appended in
  (match
     SS.Client.parse
       (transport (SS.Client.make_get_sharded_proof ~shard ~jsn:r.Receipt.jsn))
   with
  | Some (SS.Sharded_proof_r p) ->
      Alcotest.(check bool) "served proof verifies" true
        (SL.verify_proof fleet ~super:(SR.commitment sealed) p)
  | _ -> Alcotest.fail "no sharded proof served");
  (* routing integrity: an append signed for shard A, misdelivered to
     shard B, must be rejected by B's signature check *)
  let a_shard, routed = SS.Client.make_append client ~clues:[ "sc0" ]
      ~client_ts:(Clock.now clock) (Bytes.of_string "misrouted") in
  let inner =
    match SS.decode_request routed with
    | Some (SS.Routed_append { inner }) -> inner
    | _ -> Alcotest.fail "unexpected request shape"
  in
  let wrong = (a_shard + 1) mod 2 in
  match SS.Client.parse_from_shard (transport (SS.Client.make_to_shard ~shard:wrong inner)) with
  | Some (_, Service.Receipt_r _) ->
      Alcotest.fail "misrouted append accepted by the wrong shard"
  | Some (_, Service.Error_r _) | None -> ()
  | Some _ -> Alcotest.fail "unexpected response to misrouted append"

(* --- fleet replica ----------------------------------------------------------- *)

let fresh_dir () =
  let d = Filename.temp_file "shardrepl" "pull" in
  Sys.remove d;
  d

let test_replica_pull_all () =
  let clock = Clock.create () in
  let config = fleet_config ~name:"repl" 2 in
  let fleet = SL.create ~config ~clock () in
  let user, key = SL.new_member fleet ~name:"puser" ~role:Roles.Regular_user in
  for i = 0 to 19 do
    ignore
      (SL.append fleet ~member:user ~priv:key
         ~clues:[ "pc" ^ string_of_int i ]
         (payload_of i))
  done;
  let sealed =
    match SL.seal_epoch fleet with Ok s -> s | Error e -> Alcotest.fail e
  in
  let transport req = SS.handle fleet req in
  let pull_clock = Clock.create () in
  let scratch = fresh_dir () in
  let fl =
    match
      Ledger_shard.Sharded_replica.pull_all ~transport ~config
        ~clock:pull_clock ~scratch_dir:scratch ()
    with
    | Ok fl -> fl
    | Error e ->
        Alcotest.fail (Ledger_shard.Sharded_replica.error_to_string e)
  in
  Alcotest.(check int) "both shards pulled" 2
    (Array.length fl.Ledger_shard.Sharded_replica.shards);
  Array.iteri
    (fun i replica ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d replica matches sealed root" i)
        true
        (Hash.equal (Ledger.commitment replica) sealed.SR.shard_roots.(i)))
    fl.Ledger_shard.Sharded_replica.shards;
  (match fl.Ledger_shard.Sharded_replica.super with
  | Some s ->
      Alcotest.(check bool) "announced super-root validates" true
        (Hash.equal (SR.commitment s) (SR.commitment sealed))
  | None -> Alcotest.fail "no super-root pulled");
  (* a second pull into the same scratch dir resumes per shard instead
     of refetching every journal *)
  let fl2 =
    match
      Ledger_shard.Sharded_replica.pull_all ~transport ~config
        ~clock:pull_clock ~scratch_dir:scratch ()
    with
    | Ok fl -> fl
    | Error e ->
        Alcotest.fail (Ledger_shard.Sharded_replica.error_to_string e)
  in
  Array.iter
    (fun (st : Replica.stats) ->
      Alcotest.(check bool) "resumed from the staged pull" true
        (st.Replica.resumed_from > 0))
    fl2.Ledger_shard.Sharded_replica.stats

let suite =
  [
    tc "router is deterministic and in range" `Quick test_router_deterministic;
    tc "router spreads distinct clues" `Quick test_router_spreads;
    tc "super-root proves and verifies inclusion" `Quick
      test_super_root_prove_verify;
    tc "super-root wire codecs refuse tampering" `Quick test_super_root_codec;
    QCheck_alcotest.to_alcotest prop_one_shard_equals_unsharded;
    tc "every entry verifies against the super-root" `Quick
      test_cross_shard_verifies;
    tc "proofs refused past the sealed root" `Quick test_prove_refused_past_seal;
    tc "mutation invalidates only the owning shard's epoch pin" `Quick
      test_mutation_invalidates_one_shard;
    tc "routed service round-trip" `Quick test_service_roundtrip;
    tc "fleet replica pulls and resumes per shard" `Quick test_replica_pull_all;
  ]
