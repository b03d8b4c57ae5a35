open Ledger_crypto
open Ledger_storage
open Ledger_core
open Ledger_shard
open Ledger_bench_util

(* --- scenarios -------------------------------------------------------------- *)

type event =
  | Kill_shard of int
  | Tear_checkpoint of int
  | Partition
  | Heal_partition
  | Equivocate of { epoch : int }

type scenario = {
  name : string;
  seed : int;
  shards : int;
  ticks : int;
  settle_ticks : int;
  appends_per_tick : int;
  seal_every : int;
  schedule : (int * event) list;
}

type report = {
  scenario : string;
  seed : int;
  appends : int;
  rejected : int;
  degraded_epochs : int;
  full_epochs : int;
  repairs : int;
  spot_verifications : int;
  fork_evidence : int;
  converged : bool;
  failures : string list;
}

let passed r = r.converged && r.failures = []

let report_to_string r =
  Printf.sprintf
    "%s seed=%d: %s (appends=%d rejected=%d epochs=%d+%dd repairs=%d \
     verified=%d forks=%d)%s"
    r.scenario r.seed
    (if passed r then "PASS" else "FAIL")
    r.appends r.rejected r.full_epochs r.degraded_epochs r.repairs
    r.spot_verifications r.fork_evidence
    (match r.failures with
    | [] -> ""
    | fs -> "\n  " ^ String.concat "\n  " fs)

(* --- fleet pair ------------------------------------------------------------- *)

(* Subject and reference share the base name, so every name-derived
   secret (member keys, LSP keys, the fleet service key) matches and
   identically-driven shards commit byte-identical journals.  The
   reference never faults: it is simultaneously the oracle the subject
   must converge to and the repair source the supervisor resyncs from. *)
let fleet_config ~shards =
  {
    Sharded_ledger.base =
      { Ledger.default_config with Ledger.name = "chaos-fleet"; block_size = 4;
        fam_delta = 3; crypto = Crypto_profile.default_simulated };
    shards;
  }

let make_fleet ~shards =
  let clock = Clock.create () in
  let fleet = Sharded_ledger.create ~config:(fleet_config ~shards) ~clock () in
  let member, priv =
    Sharded_ledger.new_member fleet ~name:"chaos-user" ~role:Roles.Regular_user
  in
  (clock, fleet, member, priv)

let fresh_dir tag =
  let d = Filename.temp_file "chaos_orch" tag in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

(* Advance every clock of both fleets to the global maximum.  This is
   the orchestrator acting as the cross-fleet barrier: healthy shards in
   subject and reference then observe identical time, so their committed
   journals (which embed server timestamps) stay byte-identical. *)
let clocks_of fleet =
  Sharded_ledger.fleet_clock fleet
  :: List.init (Sharded_ledger.shard_count fleet) (fun i ->
         Sharded_ledger.shard_clock fleet i)

let barrier fleets =
  let all = List.concat_map clocks_of fleets in
  let horizon = List.fold_left (fun acc c -> max acc (Clock.now c)) 0L all in
  List.iter
    (fun c ->
      let d = Int64.sub horizon (Clock.now c) in
      if d > 0L then Clock.advance c d)
    all

(* --- one scenario ----------------------------------------------------------- *)

type run_state = {
  mutable appends : int;
  mutable rejected : int;
  mutable degraded_epochs : int;
  mutable full_epochs : int;
  mutable repairs : int;
  mutable spot_verifications : int;
  mutable fork_evidence : int;
  mutable failures_rev : string list;
}

let fail st fmt =
  Printf.ksprintf (fun msg -> st.failures_rev <- msg :: st.failures_rev) fmt

let run (scenario : scenario) =
  let st =
    { appends = 0; rejected = 0; degraded_epochs = 0; full_epochs = 0;
      repairs = 0; spot_verifications = 0; fork_evidence = 0;
      failures_rev = [] }
  in
  let rng = Det_rng.create ~seed:scenario.seed in
  let _sub_clock, subject, member, priv = make_fleet ~shards:scenario.shards in
  let _ref_clock, reference, ref_member, ref_priv =
    make_fleet ~shards:scenario.shards
  in
  (* repair source: the reference's fleet endpoint behind a seeded lossy
     transport — repairs must survive the same network the clients do *)
  let faulty =
    Faulty_transport.create ~rng
      ~config:(Faulty_transport.lossy ~drop:0.05 ~delay:0.02 ())
      ~clock:(Sharded_ledger.fleet_clock subject)
      (fun b -> Sharded_service.handle reference b)
  in
  let supervisor =
    Shard_supervisor.create
      ~policy:
        { Shard_supervisor.default_policy with
          Shard_supervisor.suspect_after = 2 }
      ~source:(Faulty_transport.transport faulty)
      ~transport_policy:
        { Transport.default_policy with Transport.max_attempts = 8 }
      ~backoff_rng:(Faulty_transport.backoff_rng faulty)
      ~fleet:subject
      ~scratch_dir:(fresh_dir scenario.name)
      ()
  in
  (* gossip mesh: two independent subject observers cross-checking the
     service's signed epoch announcements *)
  let service_pub = Sharded_ledger.service_public_key subject in
  let base_name = (Sharded_ledger.config subject).Sharded_ledger.base.Ledger.name in
  let peer_a = Gossip.create ~name:"auditor-a" ~service_pub ~ledger:base_name () in
  let peer_b = Gossip.create ~name:"auditor-b" ~service_pub ~ledger:base_name () in
  let killed = Array.make scenario.shards false in
  let apply_event tick = function
    | Kill_shard i ->
        if not killed.(i) then begin
          killed.(i) <- true;
          Stream_store.Unsafe.kill
            (Ledger.backing_store (Sharded_ledger.shard subject i));
          Shard_supervisor.quarantine supervisor i
        end
    | Tear_checkpoint i ->
        let dir = Shard_supervisor.checkpoint_dir supervisor i in
        if Sys.file_exists dir then begin
          let plan =
            Fault_plan.plan ~seed:(scenario.seed + (31 * tick) + i)
              ~bit_flips:0 ~truncations:1 ~zero_ranges:0 ~torn_frames:1 ~dir ()
          in
          Fault_plan.apply plan ~dir
        end
    | Partition -> Faulty_transport.set_partitioned faulty true
    | Heal_partition -> Faulty_transport.set_partitioned faulty false
    | Equivocate { epoch } -> (
        match
          ( Sharded_ledger.announce_epoch subject epoch,
            Sharded_ledger.Unsafe.equivocate subject ~epoch )
        with
        | Some honest, Some forged -> (
            ignore (Gossip.observe peer_a honest);
            ignore (Gossip.observe peer_b forged);
            match Gossip.exchange peer_a peer_b with
            | None -> fail st "equivocation at epoch %d went undetected" epoch
            | Some ev ->
                st.fork_evidence <- st.fork_evidence + 1;
                if not (Gossip.verify_fork ~service_pub ev) then
                  fail st "fork evidence for epoch %d does not self-verify"
                    epoch)
        | _ -> fail st "equivocation requested for unsealed epoch %d" epoch)
  in
  let do_appends () =
    for _ = 1 to scenario.appends_per_tick do
      let payload = Det_rng.bytes rng 24 in
      let clues = [ Printf.sprintf "k%d" (Det_rng.int rng 64) ] in
      (* the reference is the never-faulted run: it receives everything *)
      ignore
        (Sharded_ledger.append reference ~member:ref_member ~priv:ref_priv
           ~clues payload);
      match Shard_supervisor.append supervisor ~member ~priv ~clues payload with
      | Ok _ -> st.appends <- st.appends + 1
      | Error u ->
          (* liveness: a quarantined target degrades into a typed
             rejection, never a hang or a raw exception *)
          st.rejected <- st.rejected + 1;
          (match u.Shard_supervisor.shard_status with
          | Shard_supervisor.Quarantined _ | Shard_supervisor.Repairing
          | Shard_supervisor.Suspect _ ->
              ()
          | Shard_supervisor.Healthy ->
              fail st "append rejected by a shard reported healthy")
      | exception e ->
          fail st "append raised %s (liveness violation)"
            (Printexc.to_string e)
    done
  in
  let spot_verify (sealed : Super_root.sealed) =
    (* verification keeps working in degraded mode: prove + verify one
       journal on every live shard of the epoch, against the epoch's
       super digest; a perturbed digest must refuse (safety) *)
    let super = Super_root.commitment sealed in
    Array.iteri
      (fun i presence ->
        match presence with
        | Super_root.Carried -> ()
        | Super_root.Sealed ->
            let size = sealed.Super_root.shard_sizes.(i) in
            if size > 0 then begin
              match Sharded_ledger.prove subject ~shard:i ~jsn:(size - 1) with
              | Error msg -> fail st "prove on live shard %d refused: %s" i msg
              | Ok proof ->
                  st.spot_verifications <- st.spot_verifications + 1;
                  if not (Sharded_ledger.verify_proof subject ~super proof)
                  then fail st "valid proof refused on shard %d" i;
                  let wrong =
                    Hash.combine super (Hash.digest_string "wrong-super")
                  in
                  if Sharded_ledger.verify_proof subject ~super:wrong proof
                  then
                    fail st "proof accepted under a wrong super digest (shard %d)"
                      i
            end)
      sealed.Super_root.presence
  in
  let seal_round () =
    barrier [ subject; reference ];
    (match Sharded_ledger.seal_epoch reference with
    | Ok _ -> ()
    | Error msg -> fail st "reference (never-faulted) seal refused: %s" msg);
    match Shard_supervisor.seal_epoch supervisor with
    | Error msg ->
        if Shard_supervisor.quarantined supervisor <> [] then
          fail st "degraded seal refused with live shards: %s" msg
        else fail st "seal refused on a healthy fleet: %s" msg
    | Ok sealed ->
        if Super_root.full sealed then st.full_epochs <- st.full_epochs + 1
        else st.degraded_epochs <- st.degraded_epochs + 1;
        (match Sharded_ledger.announce subject with
        | None -> fail st "sealed epoch has no announcement"
        | Some ann -> (
            (match Gossip.observe peer_a ann with
            | Gossip.Fresh | Gossip.Confirmed -> ()
            | Gossip.Forked _ ->
                (* only the scripted equivocation may fork *)
                ()
            | Gossip.Rejected msg -> fail st "honest announcement rejected: %s" msg);
            match Gossip.observe peer_b ann with
            | Gossip.Rejected msg -> fail st "honest announcement rejected: %s" msg
            | _ -> ()));
        spot_verify sealed
  in
  let statuses () =
    Array.init scenario.shards (fun i -> Shard_supervisor.status supervisor i)
  in
  let total_ticks = scenario.ticks + scenario.settle_ticks in
  for tick = 0 to total_ticks - 1 do
    if tick = scenario.ticks then
      (* entering the settle phase: the outage window is over *)
      Faulty_transport.set_partitioned faulty false;
    List.iter
      (fun (at, ev) -> if at = tick then apply_event tick ev)
      scenario.schedule;
    (* one simulated tick of wall time, then the cross-fleet barrier *)
    Clock.advance (Sharded_ledger.fleet_clock subject)
      (if tick < scenario.ticks then 100_000L else 2_500_000L);
    barrier [ subject; reference ];
    do_appends ();
    let before = statuses () in
    Shard_supervisor.tick supervisor;
    Array.iteri
      (fun i prev ->
        match (prev, Shard_supervisor.status supervisor i) with
        | ( (Shard_supervisor.Quarantined _ | Shard_supervisor.Repairing),
            Shard_supervisor.Healthy ) ->
            st.repairs <- st.repairs + 1;
            killed.(i) <- false
        | _ -> ())
      before;
    if (tick + 1) mod scenario.seal_every = 0 then seal_round ()
  done;
  (* convergence: after settling, the repaired fleet must be
     indistinguishable from the run that never faulted *)
  let healthy = Shard_supervisor.quarantined supervisor = [] in
  if not healthy then
    fail st "shards still quarantined after settle: %s"
      (String.concat ","
         (List.map string_of_int (Shard_supervisor.quarantined supervisor)));
  let shards_equal = ref healthy in
  if healthy then
    for i = 0 to scenario.shards - 1 do
      let s = Sharded_ledger.shard subject i in
      let r = Sharded_ledger.shard reference i in
      if Ledger.size s <> Ledger.size r then begin
        shards_equal := false;
        fail st "shard %d: subject has %d journals, reference %d" i
          (Ledger.size s) (Ledger.size r)
      end
      else if not (Hash.equal (Ledger.commitment s) (Ledger.commitment r))
      then begin
        shards_equal := false;
        fail st "shard %d: commitment diverges from never-faulted run" i
      end
    done;
  let final_equal =
    healthy && !shards_equal
    &&
    begin
      barrier [ subject; reference ];
      match
        ( Shard_supervisor.seal_epoch supervisor,
          Sharded_ledger.seal_epoch reference )
      with
      | Ok s, Ok r ->
          st.full_epochs <- st.full_epochs + 1;
          let ok =
            Super_root.full s
            && Hash.equal (Super_root.commitment s) (Super_root.commitment r)
          in
          if not ok then
            fail st "final epochs diverge (subject %s, super %s vs %s)"
              (if Super_root.full s then "full" else "degraded")
              (Hash.short_hex (Super_root.commitment s))
              (Hash.short_hex (Super_root.commitment r));
          ok
      | Error msg, _ ->
          fail st "final subject seal refused: %s" msg;
          false
      | _, Error msg ->
          fail st "final reference seal refused: %s" msg;
          false
    end
  in
  {
    scenario = scenario.name;
    seed = scenario.seed;
    appends = st.appends;
    rejected = st.rejected;
    degraded_epochs = st.degraded_epochs;
    full_epochs = st.full_epochs;
    repairs = st.repairs;
    spot_verifications = st.spot_verifications;
    fork_evidence = st.fork_evidence;
    converged = final_equal;
    failures = List.rev st.failures_rev;
  }

(* --- the builtin matrix ------------------------------------------------------ *)

let builtin_matrix ?(seed = 42) () =
  [
    {
      name = "kill-mid-epoch";
      seed;
      shards = 3;
      ticks = 8;
      settle_ticks = 4;
      appends_per_tick = 6;
      seal_every = 2;
      schedule = [ (3, Kill_shard 1) ];
    };
    {
      name = "kill-torn-checkpoint";
      seed = seed + 1;
      shards = 3;
      ticks = 8;
      settle_ticks = 4;
      appends_per_tick = 6;
      seal_every = 2;
      schedule = [ (3, Kill_shard 2); (3, Tear_checkpoint 2) ];
    };
    {
      name = "partition-then-heal";
      seed = seed + 2;
      shards = 3;
      ticks = 10;
      settle_ticks = 4;
      appends_per_tick = 4;
      seal_every = 2;
      schedule = [ (2, Partition); (3, Kill_shard 0); (8, Heal_partition) ];
    };
    {
      name = "equivocating-service";
      seed = seed + 3;
      shards = 2;
      ticks = 6;
      settle_ticks = 2;
      appends_per_tick = 4;
      seal_every = 2;
      schedule = [ (4, Equivocate { epoch = 0 }) ];
    };
  ]

let run_matrix ?seed () = List.map run (builtin_matrix ?seed ())
