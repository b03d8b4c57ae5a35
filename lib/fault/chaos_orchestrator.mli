(** Scripted chaos: deterministic fault scenarios against a supervised
    fleet, judged on liveness, safety and convergence.

    Each {!scenario} drives a {e subject} fleet (behind a
    {!Ledger_shard.Shard_supervisor}) and a {e reference} fleet — same
    config, same name-derived keys, never faulted — in lockstep: the
    orchestrator injects the scheduled events (kill a shard's store,
    tear its checkpoint, partition the repair transport, equivocate an
    epoch announcement), appends the same workload to both, and acts as
    the cross-fleet clock barrier so healthy shards commit
    byte-identical journals.  The reference doubles as the supervisor's
    repair source, so a repaired shard is pulled back to exactly the
    never-faulted history.

    The verdict, per scenario:

    - {b liveness} — degraded operations succeed: appends to dead shards
      fail with a typed rejection (never a hang or raw exception),
      degraded seals commit with the outage verifiably carried, and
      proofs on live shards keep verifying;
    - {b safety} — no wrong verdict, ever: valid proofs verify, proofs
      against a perturbed super digest refuse, honest announcements are
      accepted and scripted equivocation always yields self-verifying
      {!Ledger_shard.Gossip.fork_evidence};
    - {b convergence} — after the settle phase the repaired fleet is
      indistinguishable from the reference: every shard byte-identical
      (size and commitment) and a final full epoch sealing to the same
      super-root commitment.

    Everything derives from the scenario seed ({!Ledger_bench_util.Det_rng},
    {!Fault_plan}, {!Faulty_transport}); a failing (scenario, seed) pair
    is a reproducible bug report. *)

type event =
  | Kill_shard of int
      (** [Stream_store.Unsafe.kill] the shard's store and tell the
          supervisor (probe latency already proven elsewhere) *)
  | Tear_checkpoint of int
      (** damage the shard's checkpoint dir with a seeded {!Fault_plan}
          (torn frame + truncation) — forces salvage to refuse or fall
          back to replica resync *)
  | Partition  (** hard-partition the repair transport *)
  | Heal_partition
  | Equivocate of { epoch : int }
      (** the service mints a second signed announcement for a sealed
          epoch; the gossip mesh must fold it into fork evidence *)

type scenario = {
  name : string;
  seed : int;
  shards : int;
  ticks : int;  (** scheduled phase: events fire, faults are live *)
  settle_ticks : int;
      (** healing phase: partitions lift, backoffs expire, repairs land *)
  appends_per_tick : int;
  seal_every : int;  (** epoch cadence, in ticks *)
  schedule : (int * event) list;  (** (tick, event), applied in order *)
}

type report = {
  scenario : string;
  seed : int;
  appends : int;  (** appends accepted by the subject *)
  rejected : int;  (** typed unavailable rejections (liveness, not loss) *)
  degraded_epochs : int;
  full_epochs : int;
  repairs : int;  (** quarantined shards returned to [Healthy] *)
  spot_verifications : int;  (** proofs checked against epoch digests *)
  fork_evidence : int;
  converged : bool;
  failures : string list;  (** assertion violations; empty on a clean run *)
}

val passed : report -> bool
(** [converged] and no failures. *)

val report_to_string : report -> string

val run : scenario -> report

val run_matrix : ?seed:int -> unit -> report list
