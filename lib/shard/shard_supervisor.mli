(** Fleet survivability: probe, quarantine, self-repair, re-admit.

    The supervisor watches a {!Sharded_ledger.t} through the same store
    probe the seal path uses ([Ledger.store_healthy]) and runs a small
    per-shard state machine:

    {v Healthy → Suspect → Quarantined → Repairing → Healthy v}

    A probe failure makes a shard [Suspect]; [suspect_after] consecutive
    failures quarantine it.  While quarantined the fleet runs {e
    degraded}: reads and verification against the last sealed super-root
    keep working, {!seal_epoch} seals under [Degraded_skip] (the absent
    shard's last root is carried, verifiably flagged), and appends
    routed to the shard are rejected with a typed {!unavailable} — never
    a hang, never a raw [Sys_error].

    Repair attempts are separated by bounded exponential backoff on the
    fleet clock.  Each attempt tries, in order:

    + {b snapshot salvage} — {!Ledger_storage.Stream_store.recover} on
      the shard's last checkpoint directory truncates any torn tail,
      then [Ledger.load_verbose ~recover:true] replays it; the salvage
      is accepted only if it reproduces the shard's last sealed root and
      size {e exactly};
    + {b replica resync} — {!Ledger_core.Replica.pull_verbose} (resume
      on, staged journals survive earlier attempts) over the [source]
      transport, checked against the last sealed root before
      re-admission.

    A successful repair swaps the rebuilt kernel in with
    {!Sharded_ledger.replace_shard}, records the mean-time-to-repair
    histogram ([shard_mttr_us]) and returns the shard to [Healthy]. *)

open Ledger_crypto
open Ledger_core

type policy = {
  suspect_after : int;
      (** consecutive failed probes before quarantine (>= 1) *)
  base_backoff_us : int64;  (** delay before the first repair attempt *)
  max_backoff_us : int64;  (** exponential growth is capped here *)
  checkpoint_on_seal : bool;
      (** after each successful seal, snapshot every live shard
          ([Ledger.save]) so salvage has something to recover *)
}

val default_policy : policy
(** 2 failed probes to quarantine, 50 ms base backoff capped at 2 s,
    checkpoints on. *)

type status =
  | Healthy
  | Suspect of { fails : int }  (** failed probes so far, < suspect_after *)
  | Quarantined of { attempt : int; next_repair_at : int64; down_at : int64 }
      (** [attempt] repairs have failed; the next one is not tried
          before [next_repair_at] (fleet clock) *)
  | Repairing
      (** a repair attempt is executing inside {!tick} right now *)

val status_to_string : status -> string

type t

val create :
  ?policy:policy ->
  ?probe:(int -> bool) ->
  ?source:Transport.t ->
  ?transport_policy:Transport.policy ->
  ?backoff_rng:(unit -> float) ->
  ?pool:Ledger_par.Domain_pool.t ->
  fleet:Sharded_ledger.t ->
  scratch_dir:string ->
  unit ->
  t
(** [probe] overrides the health probe (default
    {!Sharded_ledger.shard_healthy} — tests inject flapping probes).
    [source] is a transport speaking {!Sharded_service} to a {e healthy}
    copy of the fleet (a replica service); without it, repair can only
    salvage checkpoints.  [backoff_rng] jitters the repair backoff from
    a seeded draw in [0,1] (e.g.
    {!Ledger_fault.Faulty_transport.backoff_rng}); without it the
    backoff is the pure exponential.  [scratch_dir] holds per-shard
    checkpoint ([ckpt-s<i>]) and pull stage ([pull-s<i>])
    subdirectories. *)

val status : t -> int -> status
val quarantined : t -> int list
(** Shards currently quarantined or repairing, ascending. *)

val checkpoint_dir : t -> int -> string
(** Where shard [i]'s last checkpoint lives — the chaos suite tears
    files here to exercise salvage-under-damage. *)

val tick : t -> unit
(** One supervision round at the current fleet-clock time: probe every
    non-quarantined shard, advance the state machine, and run any repair
    whose backoff has expired.  Call it periodically (the chaos
    orchestrator calls it once per simulated tick). *)

val quarantine : t -> int -> unit
(** Force a shard straight to [Quarantined] (first repair after the base
    backoff) — the orchestrator's kill events use this to skip the
    probe-counting latency when the failure is already known. *)

(** {1 Degraded-mode operations} *)

type unavailable = {
  shard : int;
  shard_status : status;
  retry_at : int64 option;
      (** when the next repair attempt is scheduled, if quarantined *)
}

val unavailable_to_string : unavailable -> string

val append :
  t ->
  member:Roles.member ->
  priv:Ecdsa.private_key ->
  ?clues:string list ->
  bytes ->
  (int * Receipt.t, unavailable) result
(** Routed append that degrades instead of hanging: if the owning shard
    is quarantined (or its store dies under the append — which also
    advances the probe state), the caller gets a typed rejection with
    the repair schedule, within the current backoff budget. *)

val seal_epoch :
  ?pool:Ledger_par.Domain_pool.t ->
  ?policy:Sharded_ledger.seal_policy ->
  t ->
  (Super_root.sealed, string) result
(** {!Sharded_ledger.seal_epoch} with the quarantine set passed as
    [skip]; defaults to [Degraded_skip] so a quarantined shard never
    blocks the epoch.  On success, live shards are checkpointed when the
    policy asks for it. *)
