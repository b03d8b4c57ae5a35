(* Survivability tests: the shard supervisor's quarantine/repair state
   machine, degraded sealing with verifiable carried roots, the
   non-equivocation gossip mesh, and the scripted chaos orchestrator.
   Same contract as the rest of the fault suite: every failure mode ends
   in recovery or a typed refusal — never a hang, a raw exception, or a
   silently wrong verdict. *)

open Ledger_crypto
open Ledger_storage
open Ledger_core
open Ledger_shard
open Ledger_fault
open Ledger_bench_util

let tc = Alcotest.test_case

let fresh_dir () =
  let d = Filename.temp_file "surviv" "dir" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
  in
  go 0

let fleet_config shards =
  {
    Sharded_ledger.base =
      { Ledger.default_config with Ledger.name = "surviv-fleet";
        block_size = 4; fam_delta = 3;
        crypto = Crypto_profile.default_simulated };
    shards;
  }

let make_fleet ?(shards = 3) () =
  let clock = Clock.create () in
  let fleet = Sharded_ledger.create ~config:(fleet_config shards) ~clock () in
  let member, priv =
    Sharded_ledger.new_member fleet ~name:"suser" ~role:Roles.Regular_user
  in
  (clock, fleet, member, priv)

(* Route a spread of clue keys through the supervisor; rejections come
   back typed, never as exceptions. *)
let fill supervisor ~member ~priv n =
  let accepted = ref 0 and rejected = ref [] in
  for i = 0 to n - 1 do
    match
      Shard_supervisor.append supervisor ~member ~priv
        ~clues:[ "k" ^ string_of_int (i mod 8) ]
        (Bytes.of_string (Printf.sprintf "surviv %d" i))
    with
    | Ok _ -> incr accepted
    | Error u -> rejected := u :: !rejected
  done;
  (!accepted, List.rev !rejected)

let kill fleet i =
  Stream_store.Unsafe.kill (Ledger.backing_store (Sharded_ledger.shard fleet i))

let seal_ok supervisor =
  match Shard_supervisor.seal_epoch supervisor with
  | Ok s -> s
  | Error msg -> Alcotest.failf "seal refused: %s" msg

(* -------------------------------------------------------------------- *)
(* Supervisor state machine                                             *)
(* -------------------------------------------------------------------- *)

let test_state_machine () =
  let clock, fleet, member, priv = make_fleet () in
  let supervisor =
    Shard_supervisor.create
      ~policy:
        { Shard_supervisor.default_policy with
          Shard_supervisor.suspect_after = 2 }
      ~fleet ~scratch_dir:(fresh_dir ()) ()
  in
  let accepted, rejected = fill supervisor ~member ~priv 12 in
  Alcotest.(check int) "all accepted while healthy" 12 accepted;
  Alcotest.(check int) "no rejections while healthy" 0 (List.length rejected);
  Alcotest.(check bool) "healthy epoch full" true
    (Super_root.full (seal_ok supervisor));
  (* kill the store under shard 1: probes walk the state machine *)
  kill fleet 1;
  Alcotest.(check bool) "healthy until probed" true
    (Shard_supervisor.status supervisor 1 = Shard_supervisor.Healthy);
  Shard_supervisor.tick supervisor;
  (match Shard_supervisor.status supervisor 1 with
  | Shard_supervisor.Suspect { fails = 1 } -> ()
  | s ->
      Alcotest.failf "expected suspect after one failed probe, got %s"
        (Shard_supervisor.status_to_string s));
  Shard_supervisor.tick supervisor;
  (match Shard_supervisor.status supervisor 1 with
  | Shard_supervisor.Quarantined { attempt = 0; _ } -> ()
  | s ->
      Alcotest.failf "expected quarantine after repeated failures, got %s"
        (Shard_supervisor.status_to_string s));
  Alcotest.(check (list int)) "quarantine set" [ 1 ]
    (Shard_supervisor.quarantined supervisor);
  (* the seal checkpointed every shard and nothing was appended since,
     so the next due repair salvages the checkpoint locally — no replica
     source configured *)
  let killed = Sharded_ledger.shard fleet 1 in
  Clock.advance clock 60_000L;
  Shard_supervisor.tick supervisor;
  (match Shard_supervisor.status supervisor 1 with
  | Shard_supervisor.Healthy -> ()
  | s ->
      Alcotest.failf "expected a salvage repair, got %s"
        (Shard_supervisor.status_to_string s));
  Alcotest.(check bool) "store probe healthy again" true
    (Sharded_ledger.shard_healthy fleet 1);
  (* the salvaged kernel answers range queries like the one it replaced *)
  Scan_check.check_same_index ~origin:killed ~prefix:"k"
    (Sharded_ledger.shard fleet 1);
  let accepted, _ = fill supervisor ~member ~priv 12 in
  Alcotest.(check int) "repaired shard accepts appends" 12 accepted

let test_backoff_bounded () =
  let clock, fleet, member, priv = make_fleet () in
  let policy =
    { Shard_supervisor.suspect_after = 1; base_backoff_us = 50_000L;
      max_backoff_us = 200_000L; checkpoint_on_seal = false }
  in
  let supervisor =
    Shard_supervisor.create ~policy ~fleet ~scratch_dir:(fresh_dir ()) ()
  in
  ignore (fill supervisor ~member ~priv 8);
  kill fleet 0;
  Shard_supervisor.tick supervisor;
  let backoff () =
    match Shard_supervisor.status supervisor 0 with
    | Shard_supervisor.Quarantined { next_repair_at; attempt; _ } ->
        (attempt, Int64.sub next_repair_at (Clock.now clock))
    | s ->
        Alcotest.failf "expected quarantined, got %s"
          (Shard_supervisor.status_to_string s)
  in
  (* no checkpoint and no repair source: every attempt fails, and the
     delay to the next one must grow exponentially up to the cap *)
  let observed = ref [] in
  for _ = 0 to 3 do
    let _, d = backoff () in
    observed := d :: !observed;
    Clock.advance clock (Int64.add d 1L);
    Shard_supervisor.tick supervisor
  done;
  (match List.rev !observed with
  | [ d0; d1; d2; d3 ] ->
      Alcotest.(check int64) "first backoff is the base" 50_000L d0;
      Alcotest.(check int64) "second doubles" 100_000L d1;
      Alcotest.(check int64) "third hits the cap" 200_000L d2;
      Alcotest.(check int64) "fourth stays at the cap" 200_000L d3
  | _ -> assert false);
  let attempt, _ = backoff () in
  Alcotest.(check bool) "failed attempts counted" true (attempt >= 4)

let test_typed_rejection () =
  let _clock, fleet, member, priv = make_fleet () in
  let supervisor =
    Shard_supervisor.create ~fleet ~scratch_dir:(fresh_dir ()) ()
  in
  ignore (fill supervisor ~member ~priv 12);
  kill fleet 2;
  Shard_supervisor.quarantine supervisor 2;
  let accepted, rejected = fill supervisor ~member ~priv 24 in
  Alcotest.(check bool) "live shards keep accepting" true (accepted > 0);
  Alcotest.(check bool) "dead shard sheds its share" true (rejected <> []);
  List.iter
    (fun u ->
      Alcotest.(check int) "rejection names the shard" 2
        u.Shard_supervisor.shard;
      (match u.Shard_supervisor.shard_status with
      | Shard_supervisor.Quarantined _ -> ()
      | s ->
          Alcotest.failf "rejection carries status %s"
            (Shard_supervisor.status_to_string s));
      match u.Shard_supervisor.retry_at with
      | Some t ->
          Alcotest.(check bool) "retry schedule attached" true (t > 0L)
      | None -> Alcotest.fail "rejection has no retry schedule")
    rejected

(* -------------------------------------------------------------------- *)
(* Degraded sealing: the skip is carried verifiably, never silently     *)
(* -------------------------------------------------------------------- *)

let test_degraded_seal_carried () =
  let _clock, fleet, member, priv = make_fleet () in
  let supervisor =
    Shard_supervisor.create ~fleet ~scratch_dir:(fresh_dir ()) ()
  in
  ignore (fill supervisor ~member ~priv 16);
  let first = seal_ok supervisor in
  Alcotest.(check bool) "victim sealed entries in epoch 0" true
    (first.Super_root.shard_sizes.(1) > 0);
  kill fleet 1;
  Shard_supervisor.quarantine supervisor 1;
  ignore (fill supervisor ~member ~priv 16);
  let sealed = seal_ok supervisor in
  Alcotest.(check bool) "degraded epoch flagged" false (Super_root.full sealed);
  Alcotest.(check (list int)) "carried set" [ 1 ] (Super_root.carried sealed);
  Alcotest.(check bool) "carried root is the last sealed root" true
    (Hash.equal sealed.Super_root.shard_roots.(1)
       first.Super_root.shard_roots.(1));
  Alcotest.(check int) "carried size is the last sealed size"
    first.Super_root.shard_sizes.(1)
    sealed.Super_root.shard_sizes.(1);
  let super = Super_root.commitment sealed in
  (* a carried shard's inclusion proof says carried on its face, and the
     carried-ness is bound into the commitment *)
  let inc = Super_root.prove sealed ~shard:1 in
  Alcotest.(check bool) "carried inclusion verifies" true
    (Super_root.verify ~super inc);
  (match inc.Super_root.shard_presence with
  | Super_root.Carried -> ()
  | Super_root.Sealed -> Alcotest.fail "carried shard proved as live");
  Alcotest.(check bool) "presence cannot be stripped" false
    (Super_root.verify ~super
       { inc with Super_root.shard_presence = Super_root.Sealed });
  (* the wire codec preserves the degraded shape *)
  (match Super_root.decode_sealed (Super_root.encode_sealed sealed) with
  | None -> Alcotest.fail "sealed codec roundtrip failed"
  | Some s' ->
      Alcotest.(check bool) "roundtrip commitment" true
        (Hash.equal (Super_root.commitment s') super);
      Alcotest.(check (list int)) "roundtrip carried set" [ 1 ]
        (Super_root.carried s'));
  (* live shards still prove and verify against the degraded super *)
  let live_size = sealed.Super_root.shard_sizes.(0) in
  Alcotest.(check bool) "live shard has entries" true (live_size > 0);
  match Sharded_ledger.prove fleet ~shard:0 ~jsn:(live_size - 1) with
  | Error m -> Alcotest.failf "prove on live shard refused: %s" m
  | Ok proof ->
      Alcotest.(check bool) "live proof verifies" true
        (Sharded_ledger.verify_proof fleet ~super proof);
      let wrong = Hash.combine super (Hash.digest_string "x") in
      Alcotest.(check bool) "wrong super refused" false
        (Sharded_ledger.verify_proof fleet ~super:wrong proof)

let test_no_quorum_refused () =
  let _clock, fleet, member, priv = make_fleet ~shards:2 () in
  let supervisor =
    Shard_supervisor.create ~fleet ~scratch_dir:(fresh_dir ()) ()
  in
  ignore (fill supervisor ~member ~priv 8);
  kill fleet 0;
  kill fleet 1;
  Shard_supervisor.quarantine supervisor 0;
  Shard_supervisor.quarantine supervisor 1;
  match Shard_supervisor.seal_epoch supervisor with
  | Ok _ -> Alcotest.fail "sealed an epoch with every shard dead"
  | Error msg ->
      Alcotest.(check bool) "refusal names the missing quorum" true
        (contains msg "every shard")

(* -------------------------------------------------------------------- *)
(* Non-equivocation gossip                                              *)
(* -------------------------------------------------------------------- *)

let build_sealed_fleet ?(shards = 2) () =
  let clock, fleet, member, priv = make_fleet ~shards () in
  for i = 0 to 7 do
    ignore
      (Sharded_ledger.append fleet ~member ~priv
         ~clues:[ "g" ^ string_of_int i ]
         (Bytes.of_string (Printf.sprintf "g %d" i)))
  done;
  (match Sharded_ledger.seal_epoch fleet with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "seal refused: %s" m);
  (clock, fleet)

let test_gossip_fork_evidence () =
  let _clock, fleet = build_sealed_fleet () in
  let service_pub = Sharded_ledger.service_public_key fleet in
  let peer = Gossip.create ~name:"p" ~service_pub ~ledger:"surviv-fleet" () in
  let honest =
    match Sharded_ledger.announce fleet with
    | Some a -> a
    | None -> Alcotest.fail "sealed fleet has no announcement"
  in
  Alcotest.(check bool) "announcement signed by the service" true
    (Gossip.announcement_valid ~service_pub honest);
  (match Gossip.decode_announcement (Gossip.encode_announcement honest) with
  | Some a' ->
      Alcotest.(check bool) "announcement codec roundtrip" true
        (Gossip.announcement_valid ~service_pub a'
        && Hash.equal a'.Gossip.super honest.Gossip.super)
  | None -> Alcotest.fail "announcement codec roundtrip failed");
  (match Gossip.observe peer honest with
  | Gossip.Fresh -> ()
  | v -> Alcotest.failf "expected fresh, got %s" (Gossip.verdict_to_string v));
  (match Gossip.observe peer honest with
  | Gossip.Confirmed -> ()
  | v ->
      Alcotest.failf "expected confirmed, got %s" (Gossip.verdict_to_string v));
  (* wrong ledger name or broken signature: rejected, never recorded *)
  (match Gossip.observe peer { honest with Gossip.ledger = "someone-else" } with
  | Gossip.Rejected _ -> ()
  | v ->
      Alcotest.failf "foreign announcement got %s" (Gossip.verdict_to_string v));
  (match
     Gossip.observe peer
       { honest with Gossip.super = Hash.digest_string "unsigned-fork" }
   with
  | Gossip.Rejected _ -> ()
  | v ->
      Alcotest.failf "unsigned fork got %s" (Gossip.verdict_to_string v));
  Alcotest.(check bool) "peer still clean" false (Gossip.compromised peer);
  (* a validly signed second root is the real thing *)
  let forged =
    match Sharded_ledger.Unsafe.equivocate fleet ~epoch:0 with
    | Some a -> a
    | None -> Alcotest.fail "equivocate refused"
  in
  let ev =
    match Gossip.observe peer forged with
    | Gossip.Forked ev -> ev
    | v -> Alcotest.failf "expected a fork, got %s" (Gossip.verdict_to_string v)
  in
  Alcotest.(check bool) "evidence self-verifies" true
    (Gossip.verify_fork ~service_pub ev);
  let _, other_pub = Ecdsa.generate ~seed:"not-the-service" in
  Alcotest.(check bool) "a different key refuses the evidence" false
    (Gossip.verify_fork ~service_pub:other_pub ev);
  (match Gossip.decode_fork (Gossip.encode_fork ev) with
  | Some ev' ->
      Alcotest.(check bool) "fork codec roundtrip verifies" true
        (Gossip.verify_fork ~service_pub ev')
  | None -> Alcotest.fail "fork codec roundtrip failed");
  Alcotest.(check bool) "announcement bytes are not fork-shaped" true
    (Gossip.decode_fork (Gossip.encode_announcement honest) = None);
  Alcotest.(check bool) "peer compromised, sticky" true
    (Gossip.compromised peer);
  (* the evidence condemns a client permanently *)
  let client =
    Ledger_client.create ~name:"c"
      ~lsp_pub:(Ledger.lsp_public_key (Sharded_ledger.shard fleet 0))
  in
  Gossip.condemn peer client;
  Alcotest.(check bool) "client condemned" true
    (Ledger_client.status client = Ledger_client.Compromised);
  Ledger_client.note_recovery client;
  Alcotest.(check bool) "no retry softens cryptographic evidence" true
    (Ledger_client.status client = Ledger_client.Compromised)

let test_replica_refuses_equivocation () =
  let clock, fleet = build_sealed_fleet () in
  let service_pub = Sharded_ledger.service_public_key fleet in
  let gossip =
    Gossip.create ~name:"puller" ~service_pub ~ledger:"surviv-fleet" ()
  in
  let forged =
    match Sharded_ledger.Unsafe.equivocate fleet ~epoch:0 with
    | Some a -> a
    | None -> Alcotest.fail "equivocate refused"
  in
  ignore (Gossip.observe gossip forged);
  (* the pull itself is valid — but the service's announcement for the
     pulled epoch conflicts with what the peer already holds *)
  match
    Sharded_replica.pull_all
      ~transport:(Sharded_service.handle fleet)
      ~config:(fleet_config 2) ~gossip ~clock ~scratch_dir:(fresh_dir ()) ()
  with
  | Error (Sharded_replica.Equivocation ev) ->
      Alcotest.(check bool) "surfaced evidence verifies" true
        (Gossip.verify_fork ~service_pub ev)
  | Error e ->
      Alcotest.failf "expected equivocation, got %s"
        (Sharded_replica.error_to_string e)
  | Ok _ -> Alcotest.fail "pull accepted a forked service"

(* -------------------------------------------------------------------- *)
(* Transport: typed exhaustion, partitions, seeded jitter               *)
(* -------------------------------------------------------------------- *)

let test_partition_typed_exhaustion () =
  let clock, fleet = build_sealed_fleet () in
  let ft =
    Faulty_transport.create
      ~rng:(Det_rng.create ~seed:3)
      ~config:(Faulty_transport.lossy ())
      ~clock
      (Sharded_service.handle fleet)
  in
  Faulty_transport.set_partitioned ft true;
  let policy =
    { Transport.default_policy with Transport.max_attempts = 4 }
  in
  let scratch = fresh_dir () in
  (match
     Sharded_replica.pull_all
       ~transport:(Faulty_transport.transport ft)
       ~config:(fleet_config 2) ~policy ~clock ~scratch_dir:scratch ()
   with
  | Error (Sharded_replica.Fleet_transport e) ->
      Alcotest.(check int) "terminal error carries the attempt count" 4
        e.Transport.attempts;
      Alcotest.(check bool) "last reason kept" true
        (String.length e.Transport.reason > 0)
  | Error e ->
      Alcotest.failf "expected typed exhaustion, got %s"
        (Sharded_replica.error_to_string e)
  | Ok _ -> Alcotest.fail "pull succeeded across a partition");
  (* heal: the same transport (same seeded schedule) now converges *)
  Faulty_transport.set_partitioned ft false;
  match
    Sharded_replica.pull_all
      ~transport:(Faulty_transport.transport ft)
      ~config:(fleet_config 2) ~clock ~scratch_dir:scratch ()
  with
  | Ok f ->
      Array.iteri
        (fun i r ->
          Alcotest.(check bool)
            (Printf.sprintf "replica shard %d converged" i)
            true
            (Hash.equal (Ledger.commitment r)
               (Ledger.commitment (Sharded_ledger.shard fleet i))))
        f.Sharded_replica.shards
  | Error e ->
      Alcotest.failf "healed pull failed: %s"
        (Sharded_replica.error_to_string e)

let test_backoff_jitter_deterministic () =
  let mk seed =
    Faulty_transport.create
      ~rng:(Det_rng.create ~seed)
      ~config:(Faulty_transport.lossy ())
      ~clock:(Clock.create ())
      (fun b -> b)
  in
  let draws t = List.init 16 (fun _ -> Faulty_transport.backoff_rng t ()) in
  let a = draws (mk 9) in
  let b = draws (mk 9) in
  let c = draws (mk 10) in
  Alcotest.(check (list (float 1e-12))) "same seed, same jitter" a b;
  Alcotest.(check bool) "different seed, different jitter" true (a <> c);
  List.iter
    (fun x ->
      Alcotest.(check bool) "draw in [0,1)" true (x >= 0. && x < 1.))
    a

(* -------------------------------------------------------------------- *)
(* Orchestrator                                                         *)
(* -------------------------------------------------------------------- *)

let test_orchestrator_scenario () =
  let report =
    Chaos_orchestrator.run
      { Chaos_orchestrator.name = "unit-kill"; seed = 7; shards = 3;
        ticks = 8; settle_ticks = 4; appends_per_tick = 6; seal_every = 2;
        schedule = [ (3, Chaos_orchestrator.Kill_shard 0) ] }
  in
  if not (Chaos_orchestrator.passed report) then
    Alcotest.fail (Chaos_orchestrator.report_to_string report);
  Alcotest.(check bool) "typed rejections observed" true
    (report.Chaos_orchestrator.rejected > 0);
  Alcotest.(check bool) "the shard was repaired" true
    (report.Chaos_orchestrator.repairs >= 1);
  Alcotest.(check bool) "proofs were spot-checked" true
    (report.Chaos_orchestrator.spot_verifications > 0)

let suite =
  [
    tc "supervisor state machine" `Quick test_state_machine;
    tc "repair backoff bounded exponential" `Quick test_backoff_bounded;
    tc "typed rejection while quarantined" `Quick test_typed_rejection;
    tc "degraded seal carries verifiably" `Quick test_degraded_seal_carried;
    tc "no quorum refuses the seal" `Quick test_no_quorum_refused;
    tc "gossip fork evidence" `Quick test_gossip_fork_evidence;
    tc "replica refuses equivocation" `Quick test_replica_refuses_equivocation;
    tc "partition: typed exhaustion then heal" `Slow
      test_partition_typed_exhaustion;
    tc "backoff jitter is seed-deterministic" `Quick
      test_backoff_jitter_deterministic;
    tc "orchestrator scenario converges" `Slow test_orchestrator_scenario;
  ]
