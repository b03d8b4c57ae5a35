(** Append-only audit log of verification attempts.

    Every verification anywhere in the stack — client receipt checks,
    server existence proofs, auditor sweeps — records who verified what
    and how it went.  The log is queryable: {!coverage} reports which
    fraction of the ledger has actually been verified by anyone, the
    number behind [ledgerdb_cli stats]. *)

type subject =
  | Journal of int  (** existence/integrity of journal [jsn] *)
  | Receipt of int  (** server receipt for journal [jsn] *)
  | Commitment of int  (** ledger-level commitment at the given size *)
  | Clue of string  (** clue (label) completeness check *)
  | Extension of { old_size : int; new_size : int }
      (** append-only growth between two sizes *)
  | Fork_epoch of int
      (** non-equivocation gossip surfaced conflicting service-signed
          super-roots for this epoch (always [Repudiated]) *)

type outcome =
  | Verified
  | Degraded of string
      (** attempt made, no verdict (e.g. transport exhausted) *)
  | Repudiated of string  (** cryptographic evidence against the ledger *)

type entry = {
  seq : int;  (** global event sequence (shared with trace spans) *)
  at_us : int64;  (** simulated time of the attempt *)
  verifier : string;
  subject : subject;
  outcome : outcome;
}

val record : verifier:string -> subject -> outcome -> unit
(** Append one entry.  No-op while recording is disabled. *)

val entries : unit -> entry list
(** Oldest first. *)

val size : unit -> int

type coverage = { verified_jsns : int; total_jsns : int; ratio : float }

val coverage : ledger_size:int -> coverage
(** A jsn is covered when at least one [Verified] entry targets its
    journal or receipt.  [ratio] is 1.0 for an empty ledger. *)

val coverage_where : verifier_prefix:string -> ledger_size:int -> coverage
(** Like {!coverage} but counting only entries whose [verifier] string
    starts with [verifier_prefix] — the per-shard breakdown behind
    [ledgerdb_cli stats] (sharded verifiers embed their shard, e.g.
    ["client@shard3"]), where [ledger_size] is that shard's size and
    jsns are shard-local. *)

val reset : unit -> unit
