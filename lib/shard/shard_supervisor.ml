open Ledger_crypto
open Ledger_storage
open Ledger_core
open Ledger_obs

type policy = {
  suspect_after : int;
  base_backoff_us : int64;
  max_backoff_us : int64;
  checkpoint_on_seal : bool;
}

let default_policy =
  { suspect_after = 2; base_backoff_us = 50_000L; max_backoff_us = 2_000_000L;
    checkpoint_on_seal = true }

type status =
  | Healthy
  | Suspect of { fails : int }
  | Quarantined of { attempt : int; next_repair_at : int64; down_at : int64 }
  | Repairing

let status_to_string = function
  | Healthy -> "healthy"
  | Suspect { fails } -> Printf.sprintf "suspect (%d failed probes)" fails
  | Quarantined { attempt; next_repair_at; _ } ->
      Printf.sprintf "quarantined (attempt %d, next repair at %Ldus)" attempt
        next_repair_at
  | Repairing -> "repairing"

type t = {
  fleet : Sharded_ledger.t;
  policy : policy;
  probe : int -> bool;
  source : Transport.t option;
  transport_policy : Transport.policy;
  backoff_rng : (unit -> float) option;
  pool : Ledger_par.Domain_pool.t;
  scratch_dir : string;
  states : status array;
}

let create ?(policy = default_policy) ?probe ?source
    ?(transport_policy = Transport.default_policy) ?backoff_rng
    ?(pool = Ledger_par.Domain_pool.default ()) ~fleet ~scratch_dir () =
  if policy.suspect_after < 1 then
    invalid_arg "Shard_supervisor.create: suspect_after must be >= 1";
  if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755;
  let probe =
    match probe with
    | Some p -> p
    | None -> fun i -> Sharded_ledger.shard_healthy fleet i
  in
  {
    fleet;
    policy;
    probe;
    source;
    transport_policy;
    backoff_rng;
    pool;
    scratch_dir;
    states = Array.make (Sharded_ledger.shard_count fleet) Healthy;
  }

let status t i =
  if i < 0 || i >= Array.length t.states then
    invalid_arg (Printf.sprintf "Shard_supervisor: shard %d out of range" i);
  t.states.(i)

let quarantined t =
  let acc = ref [] in
  Array.iteri
    (fun i s ->
      match s with
      | Quarantined _ | Repairing -> acc := i :: !acc
      | Healthy | Suspect _ -> ())
    t.states;
  List.rev !acc

let checkpoint_dir t i = Filename.concat t.scratch_dir (Printf.sprintf "ckpt-s%d" i)
let stage_dir t i = Filename.concat t.scratch_dir (Printf.sprintf "pull-s%d" i)

let now t = Clock.now (Sharded_ledger.fleet_clock t.fleet)

let set_gauge t i =
  let v =
    match t.states.(i) with
    | Healthy -> 1.
    | Suspect _ -> 0.5
    | Quarantined _ | Repairing -> 0.
  in
  Metrics.set_gauge (Printf.sprintf "shard_health_s%d" i) v

(* Bounded exponential backoff between repair attempts; an optional
   seeded draw jitters it the same way Transport backoffs jitter. *)
let backoff_us t ~attempt =
  let rec shifted base n =
    if n <= 0 || base >= t.policy.max_backoff_us then base
    else shifted (Int64.mul base 2L) (n - 1)
  in
  let raw =
    Int64.min t.policy.max_backoff_us
      (shifted t.policy.base_backoff_us attempt)
  in
  match t.backoff_rng with
  | None -> raw
  | Some rng ->
      let unit_f = Float.max 0. (Float.min 1. (rng ())) in
      let f = 1. -. (0.5 *. unit_f) in
      Int64.of_float (Int64.to_float raw *. f)

let enter_quarantine t i ~down_at ~attempt =
  let next_repair_at = Int64.add (now t) (backoff_us t ~attempt) in
  (match t.states.(i) with
  | Quarantined _ | Repairing -> ()
  | Healthy | Suspect _ -> Metrics.incr "shard_quarantines_total");
  t.states.(i) <- Quarantined { attempt; next_repair_at; down_at };
  set_gauge t i

let quarantine t i =
  ignore (status t i);
  match t.states.(i) with
  | Quarantined _ | Repairing -> ()
  | Healthy | Suspect _ -> enter_quarantine t i ~down_at:(now t) ~attempt:0

let note_probe_failure t i =
  match t.states.(i) with
  | Quarantined _ | Repairing -> ()
  | Healthy ->
      if t.policy.suspect_after <= 1 then
        enter_quarantine t i ~down_at:(now t) ~attempt:0
      else begin
        t.states.(i) <- Suspect { fails = 1 };
        set_gauge t i
      end
  | Suspect { fails } ->
      if fails + 1 >= t.policy.suspect_after then
        enter_quarantine t i ~down_at:(now t) ~attempt:0
      else begin
        t.states.(i) <- Suspect { fails = fails + 1 };
        set_gauge t i
      end

(* --- checkpoints ------------------------------------------------------------ *)

(* Two artefacts per checkpoint: the [Ledger.save] snapshot (what a
   salvage reloads) and a CRC-framed mirror of the journal stream in
   Stream_store's own on-disk format.  [Stream_store.recover] on the
   mirror is the salvage gate: it truncates torn tails on disk and
   classifies the damage, so a tampered checkpoint (corrupt interior
   record) is refused before any replay is attempted. *)
let mirror_journals ledger ~dir =
  let js = Stream_store.stream (Ledger.backing_store ledger) "journals" in
  let m = Stream_store.create ~dir () in
  let mjs = Stream_store.stream m "journals" in
  for i = 0 to Stream_store.length js - 1 do
    match Stream_store.read_result js i with
    | Ok b -> ignore (Stream_store.append mjs b)
    | Error _ ->
        ignore (Stream_store.append mjs Bytes.empty);
        Stream_store.erase mjs i
  done;
  Stream_store.persist m

let checkpoint_shard t i =
  let ledger = Sharded_ledger.shard t.fleet i in
  let dir = checkpoint_dir t i in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  try
    Ledger.save ledger ~dir;
    mirror_journals ledger ~dir;
    Metrics.incr "shard_checkpoints_total";
    true
  with Sys_error _ ->
    (* the store died mid-checkpoint: the probe path will pick it up *)
    false

(* --- repair ----------------------------------------------------------------- *)

(* The shard's last live sealed root and size, scanning epochs newest
   first: what a repaired kernel must reproduce (exactly, for a
   checkpoint salvage; as a prefix, for a replica resync). *)
let last_sealed_entry t i =
  let rec scan = function
    | [] -> None
    | (s : Super_root.sealed) :: older -> (
        match s.Super_root.presence.(i) with
        | Super_root.Sealed ->
            Some (s.Super_root.shard_roots.(i), s.Super_root.shard_sizes.(i))
        | Super_root.Carried -> scan older)
  in
  scan (List.rev (Sharded_ledger.epochs t.fleet))

let fresh_clock t = Clock.create ~start:(now t) ()

let salvage_checkpoint t i =
  let dir = checkpoint_dir t i in
  if not (Sys.file_exists dir) then Error "no checkpoint to salvage"
  else begin
    let _, reports = Stream_store.recover ~dir () in
    let tampered =
      List.exists
        (fun r -> r.Stream_store.damage = Stream_store.Corrupt_record)
        reports
    in
    List.iter
      (fun (r : Stream_store.recovery) ->
        match r.Stream_store.damage with
        | Stream_store.Intact -> ()
        | Stream_store.Torn_tail -> Metrics.incr "shard_salvage_torn_tails_total"
        | Stream_store.Corrupt_record ->
            Metrics.incr "shard_salvage_corrupt_records_total")
      reports;
    if tampered then
      Error "checkpoint mirror has a corrupt interior record (not a crash)"
    else begin
      let clock = fresh_clock t in
      let config = Sharded_ledger.shard_config (Sharded_ledger.config t.fleet) i in
      match Ledger.load_verbose ~config ~recover:true ~clock ~dir () with
      | Error msg -> Error msg
      | Ok (ledger, _) ->
          (* the dead kernel's in-memory accumulator survives the store:
             it is the authority on what the shard had committed.  A
             salvage that stops short of it would silently drop accepted
             journals — refuse and resync instead. *)
          let live = Sharded_ledger.shard t.fleet i in
          if
            Ledger.size ledger = Ledger.size live
            && Hash.equal (Ledger.commitment ledger) (Ledger.commitment live)
          then Ok (ledger, clock)
          else
            Error
              (Printf.sprintf
                 "salvage stopped short of the shard's committed state \
                  (%d/%d journals)"
                 (Ledger.size ledger) (Ledger.size live))
    end
  end

let resync_from_source t i =
  match t.source with
  | None -> Error "no repair source configured"
  | Some transport -> (
      let clock = fresh_clock t in
      let config = Sharded_ledger.shard_config (Sharded_ledger.config t.fleet) i in
      match
        Replica.pull_verbose
          ~transport:(Sharded_replica.shard_transport transport i)
          ~policy:t.transport_policy ~config ~resume:true ~pool:t.pool ~clock
          ~scratch_dir:(stage_dir t i) ()
      with
      | Error e -> Error (Replica.error_to_string e)
      | Ok (ledger, _stats) -> (
          match last_sealed_entry t i with
          | None -> Ok (ledger, clock)
          | Some (root, size) ->
              (* the source may have committed past the sealed root; the
                 sealed prefix is the part re-admission vouches for *)
              if Ledger.size ledger < size then
                Error
                  (Printf.sprintf
                     "resynced replica has %d journals, sealed size is %d"
                     (Ledger.size ledger) size)
              else if
                Ledger.size ledger = size
                && not (Hash.equal (Ledger.commitment ledger) root)
              then Error "resynced replica diverges from sealed root"
              else Ok (ledger, clock)))

let attempt_repair t i ~attempt ~down_at =
  t.states.(i) <- Repairing;
  set_gauge t i;
  Metrics.incr "shard_repair_attempts_total";
  let outcome =
    match salvage_checkpoint t i with
    | Ok r ->
        Metrics.incr "shard_salvages_total";
        Ok r
    | Error _ -> resync_from_source t i
  in
  match outcome with
  | Ok (ledger, clock) ->
      Sharded_ledger.replace_shard t.fleet i ~ledger ~clock;
      t.states.(i) <- Healthy;
      set_gauge t i;
      Metrics.incr "shard_repairs_total";
      Metrics.observe "shard_mttr_us" (Int64.to_float (Int64.sub (now t) down_at));
      true
  | Error _reason ->
      Metrics.incr "shard_repair_failures_total";
      enter_quarantine t i ~down_at ~attempt:(attempt + 1);
      false

let tick t =
  Array.iteri
    (fun i state ->
      match state with
      | Healthy | Suspect _ ->
          if t.probe i then begin
            t.states.(i) <- Healthy;
            set_gauge t i
          end
          else note_probe_failure t i
      | Quarantined { attempt; next_repair_at; down_at } ->
          if now t >= next_repair_at then
            ignore (attempt_repair t i ~attempt ~down_at)
      | Repairing -> ())
    t.states

(* --- degraded-mode operations ---------------------------------------------- *)

type unavailable = {
  shard : int;
  shard_status : status;
  retry_at : int64 option;
}

let unavailable_to_string u =
  Printf.sprintf "shard %d unavailable: %s%s" u.shard
    (status_to_string u.shard_status)
    (match u.retry_at with
    | Some at -> Printf.sprintf " (retry after %Ldus)" at
    | None -> "")

let reject t i =
  Metrics.incr "shard_unavailable_appends_total";
  let retry_at =
    match t.states.(i) with
    | Quarantined { next_repair_at; _ } -> Some next_repair_at
    | Healthy | Suspect _ | Repairing -> None
  in
  Error { shard = i; shard_status = t.states.(i); retry_at }

let append t ~member ~priv ?(clues = []) payload =
  let i =
    Shard_router.route (Sharded_ledger.router t.fleet) ~clues ~payload
  in
  match t.states.(i) with
  | Quarantined _ | Repairing -> reject t i
  | Healthy | Suspect _ -> (
      match Sharded_ledger.append t.fleet ~member ~priv ~clues payload with
      | result -> Ok result
      | exception Sys_error _ ->
          (* the store died under the append: advance the probe state so
             the shard heads for quarantine, and reject typed — the
             caller never sees the raw Sys_error *)
          note_probe_failure t i;
          reject t i)

let seal_epoch ?pool ?(policy = Sharded_ledger.Degraded_skip) t =
  let skip = quarantined t in
  let result = Sharded_ledger.seal_epoch ?pool ~policy ~skip t.fleet in
  (match result with
  | Ok _ when t.policy.checkpoint_on_seal ->
      Array.iteri
        (fun i state ->
          match state with
          | Healthy | Suspect _ -> ignore (checkpoint_shard t i)
          | Quarantined _ | Repairing -> ())
        t.states
  | Ok _ | Error _ -> ());
  result
