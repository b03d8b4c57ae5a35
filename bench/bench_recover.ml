(* Supervisor repair economics: mean-time-to-repair and the price of
   degraded mode.

   Two fleets share the base name (so every name-derived key matches),
   exactly as in the chaos orchestrator: the reference never faults and
   doubles as the resync source.  The bench kills one shard's store and
   reads MTTR off the simulated clock for both repair paths:

     salvage — the last seal checkpointed the shard and nothing was
               appended since, so Stream_store.recover + replay
               reproduces the committed state locally;
     resync  — appends landed after the checkpoint, so salvage refuses
               (it would silently lose them) and the supervisor falls
               back to a verified replica pull from the reference.

   The throughput half runs the same workload twice — fleet healthy,
   then with the victim quarantined (repair backoff pushed out of
   range) — and reports per-accepted-entry cost plus the typed-rejection
   count: degraded mode must shed exactly the victim's share of the
   workload, never hang, and never slow the surviving shards down.  Both
   repaired shards are checked byte-identical (size and commitment)
   against the reference before any number is reported.  Beside each
   simulated figure, [wall_us_mttr] and [wall_us_per_entry] report the
   same run's wall time on the host (ungated, host-dependent). *)

open Ledger_crypto
open Ledger_storage
open Ledger_core
open Ledger_bench_util
module SL = Ledger_shard.Sharded_ledger
module Sup = Ledger_shard.Shard_supervisor

let shards = 4
let victim = 1

let fleet_config =
  {
    SL.base =
      { Ledger.default_config with Ledger.name = "bench-recover";
        block_size = 8; fam_delta = 5;
        crypto = Crypto_profile.default_simulated };
    shards;
  }

let make_fleet () =
  let clock = Clock.create () in
  let fleet = SL.create ~config:fleet_config ~clock () in
  let member, priv =
    SL.new_member fleet ~name:"bruser" ~role:Roles.Regular_user
  in
  (fleet, member, priv)

let fresh_dir tag =
  let d = Filename.temp_file "bench_recover" tag in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let clocks_of fleet =
  SL.fleet_clock fleet
  :: List.init (SL.shard_count fleet) (fun i -> SL.shard_clock fleet i)

(* cross-fleet barrier: identical clocks before each phase keep the
   subject's committed journals byte-identical to the reference's *)
let barrier fleets =
  let all = List.concat_map clocks_of fleets in
  let horizon = List.fold_left (fun acc c -> max acc (Clock.now c)) 0L all in
  List.iter
    (fun c ->
      let d = Int64.sub horizon (Clock.now c) in
      if d > 0L then Clock.advance c d)
    all

let payload_clues rng =
  (Det_rng.bytes rng 24, [ Printf.sprintf "k%d" (Det_rng.int rng 64) ])

let kill_shard fleet i =
  Stream_store.Unsafe.kill (Ledger.backing_store (SL.shard fleet i))

(* --- mean time to repair ----------------------------------------------------- *)

type mode = Salvage | Resync

let mode_to_string = function Salvage -> "salvage" | Resync -> "resync"

let measure_mttr ~entries mode =
  let subject, member, priv = make_fleet () in
  let reference, ref_member, ref_priv = make_fleet () in
  let supervisor =
    Sup.create
      ?source:
        (match mode with
        | Salvage -> None (* no source: success proves the local path *)
        | Resync -> Some (Ledger_shard.Sharded_service.handle reference))
      ~fleet:subject
      ~scratch_dir:(fresh_dir (mode_to_string mode))
      ()
  in
  let rng = Det_rng.create ~seed:7 in
  let append_both n =
    barrier [ subject; reference ];
    for _ = 1 to n do
      let payload, clues = payload_clues rng in
      ignore (SL.append reference ~member:ref_member ~priv:ref_priv ~clues payload);
      match Sup.append supervisor ~member ~priv ~clues payload with
      | Ok _ -> ()
      | Error u ->
          failwith
            ("bench_recover: append rejected on a healthy fleet: "
            ^ Sup.unavailable_to_string u)
    done
  in
  append_both entries;
  barrier [ subject; reference ];
  (match (Sup.seal_epoch supervisor, SL.seal_epoch reference) with
  | Ok _, Ok _ -> ()
  | Error msg, _ | _, Error msg ->
      failwith ("bench_recover: seal refused: " ^ msg));
  (* resync path: land appends after the checkpoint, so salvage would
     stop short of the committed state and must hand over to the pull *)
  (match mode with Salvage -> () | Resync -> append_both (entries / 2));
  if Ledger.size (SL.shard subject victim) = 0 then
    failwith "bench_recover: victim shard is empty; widen the workload";
  barrier [ subject; reference ];
  kill_shard subject victim;
  Sup.quarantine supervisor victim;
  let t0 = Clock.now (SL.fleet_clock subject) in
  let wall0 = Unix.gettimeofday () in
  let ticks = ref 0 in
  while Sup.status supervisor victim <> Sup.Healthy do
    incr ticks;
    if !ticks > 10_000 then
      failwith
        (Printf.sprintf "bench_recover: %s repair did not land"
           (mode_to_string mode));
    Clock.advance (SL.fleet_clock subject) 10_000L;
    barrier [ subject; reference ];
    Sup.tick supervisor
  done;
  let wall_us = (Unix.gettimeofday () -. wall0) *. 1e6 in
  let mttr_us =
    Int64.to_float (Int64.sub (Clock.now (SL.fleet_clock subject)) t0)
  in
  let s = SL.shard subject victim and r = SL.shard reference victim in
  if
    Ledger.size s <> Ledger.size r
    || not (Hash.equal (Ledger.commitment s) (Ledger.commitment r))
  then failwith "bench_recover: repaired shard diverges from the reference";
  (mttr_us, !ticks, Ledger.size s, wall_us)

(* --- degraded-mode throughput ------------------------------------------------ *)

let measure_throughput ~entries =
  let subject, member, priv = make_fleet () in
  let supervisor =
    Sup.create
      ~policy:
        { Sup.default_policy with
          (* push every repair out of the measurement window *)
          Sup.base_backoff_us = 3_600_000_000L;
          max_backoff_us = 3_600_000_000L }
      ~fleet:subject
      ~scratch_dir:(fresh_dir "tput")
      ()
  in
  let rng = Det_rng.create ~seed:11 in
  let run_phase n =
    barrier [ subject ];
    let t0 = Clock.now (SL.fleet_clock subject) in
    let wall0 = Unix.gettimeofday () in
    let accepted = ref 0 and rejected = ref 0 in
    for _ = 1 to n do
      let payload, clues = payload_clues rng in
      match Sup.append supervisor ~member ~priv ~clues payload with
      | Ok _ -> incr accepted
      | Error _ -> incr rejected
    done;
    barrier [ subject ];
    let wall_us = (Unix.gettimeofday () -. wall0) *. 1e6 in
    let us = Int64.to_float (Int64.sub (Clock.now (SL.fleet_clock subject)) t0) in
    let per_accepted v = v /. float_of_int (max 1 !accepted) in
    (per_accepted us, !accepted, !rejected, per_accepted wall_us)
  in
  let healthy = run_phase entries in
  (match Sup.seal_epoch supervisor with
  | Ok _ -> ()
  | Error msg -> failwith ("bench_recover: seal refused: " ^ msg));
  kill_shard subject victim;
  Sup.quarantine supervisor victim;
  let degraded = run_phase entries in
  let _, h_acc, h_rej, _ = healthy and _, d_acc, d_rej, _ = degraded in
  if h_rej <> 0 then failwith "bench_recover: healthy phase shed appends";
  if d_rej = 0 then
    failwith "bench_recover: degraded phase never hit the quarantined shard";
  if d_acc + d_rej <> entries then
    failwith "bench_recover: degraded phase lost appends (liveness)";
  ignore h_acc;
  (healthy, degraded)

(* --- entry point ------------------------------------------------------------- *)

let run ?(smoke = false) ?json () =
  let entries = if smoke then 48 else 256 in
  Table.print_title
    (Printf.sprintf
       "Shard repair: MTTR by path and degraded-mode throughput (%d journals)"
       entries);
  let salvage_us, salvage_ticks, salvage_journals, salvage_wall =
    measure_mttr ~entries Salvage
  in
  let resync_us, resync_ticks, resync_journals, resync_wall =
    measure_mttr ~entries Resync
  in
  let ( (healthy_us, healthy_acc, _, healthy_wall),
        (degraded_us, degraded_acc, degraded_rej, degraded_wall) ) =
    measure_throughput ~entries
  in
  Table.print_table
    ~header:
      [ "repair path"; "MTTR (ms)"; "wall (ms)"; "ticks"; "journals restored" ]
    [
      [ "salvage"; Table.human_ms (salvage_us /. 1000.);
        Table.human_ms (salvage_wall /. 1000.);
        string_of_int salvage_ticks; string_of_int salvage_journals ];
      [ "resync"; Table.human_ms (resync_us /. 1000.);
        Table.human_ms (resync_wall /. 1000.);
        string_of_int resync_ticks; string_of_int resync_journals ];
    ];
  Table.print_table
    ~header:
      [ "mode"; "per entry (us)"; "wall/entry (us)"; "accepted"; "rejected" ]
    [
      [ "healthy"; Printf.sprintf "%.1f" healthy_us;
        Printf.sprintf "%.1f" healthy_wall;
        string_of_int healthy_acc; "0" ];
      [ "degraded"; Printf.sprintf "%.1f" degraded_us;
        Printf.sprintf "%.1f" degraded_wall;
        string_of_int degraded_acc; string_of_int degraded_rej ];
    ];
  (match json with
  | None -> ()
  | Some path ->
      let open Json_out in
      write_file path
        (Obj
           [
             ("figure", Str "recover");
             ("entries", Int entries);
             ( "salvage",
               Obj
                 [
                   ("mttr_us", Float salvage_us);
                   ("wall_us_mttr", Float salvage_wall);
                   ("ticks", Int salvage_ticks);
                   ("journals", Int salvage_journals);
                 ] );
             ( "resync",
               Obj
                 [
                   ("mttr_us", Float resync_us);
                   ("wall_us_mttr", Float resync_wall);
                   ("ticks", Int resync_ticks);
                   ("journals", Int resync_journals);
                 ] );
             ( "healthy",
               Obj
                 [
                   ("per_entry_us", Float healthy_us);
                   ("wall_us_per_entry", Float healthy_wall);
                   ("accepted", Int healthy_acc);
                   ("rejected", Int 0);
                 ] );
             ( "degraded",
               Obj
                 [
                   ("per_entry_us", Float degraded_us);
                   ("wall_us_per_entry", Float degraded_wall);
                   ("accepted", Int degraded_acc);
                   ("rejected", Int degraded_rej);
                 ] );
           ]);
      Printf.printf "wrote %s\n" path)
