(** Remote replication for external auditors (paper §II-C: "verified at
    client side … by anyone who can directly access the ledger, such as
    external auditors").

    [pull] downloads the entire ledger — checkpoint, membership, every
    journal (with its retained accumulator leaf) and every block — through
    the byte-level {!Service} protocol, materialises it in the snapshot
    format and replays it through {!Ledger.load}, which re-derives every
    tree and {e refuses} the replica unless the announced commitment, clue
    root, and each journal's content-to-leaf binding reproduce.  The
    result is a locally verified replica an auditor can {!Audit.run}
    without trusting the transport or the LSP.

    The pull is {e self-healing} over an unreliable transport: every
    request goes through {!Transport.request_expect} (retry, exponential
    backoff with jitter, per-request timeouts against the simulated
    clock), journals are staged on disk in CRC-framed records so an
    interrupted pull resumes from the last intact journal instead of
    starting over, and a stale stage that no longer replays is discarded
    and re-pulled once from scratch.  Verification failures are never
    retried: if the replay refuses the data, the pull refuses. *)

open Ledger_storage
open Ledger_timenotary

type stats = {
  requests : int;  (** logical requests issued (excluding retries) *)
  retries : int;  (** transient-fault retries across all requests *)
  resumed_from : int;  (** journals reused from an earlier staged pull *)
  restarted : bool;
      (** a stale stage was discarded and the pull restarted clean *)
}

type error =
  | Transport_failed of Transport.error
      (** retries exhausted on transient faults *)
  | Refused of string  (** the service answered [Error_r] *)
  | Protocol of string  (** identity/shape mismatch *)
  | Load_failed of string
      (** the downloaded data did not verify — never retried *)

val error_to_string : error -> string

val pull_verbose :
  transport:Transport.t ->
  ?policy:Transport.policy ->
  ?config:Ledger.config ->
  ?t_ledger:T_ledger.t ->
  ?tsa:Tsa.pool ->
  ?resume:bool ->
  ?pool:Ledger_par.Domain_pool.t ->
  clock:Clock.t ->
  scratch_dir:string ->
  unit ->
  (Ledger.t * stats, error) result
(** [transport] is the only channel to the remote service (e.g.
    [Service.handle remote_ledger], or a real socket).  [scratch_dir] is
    where the downloaded snapshot is staged.  The [config] must match the
    remote service's announced name (checked) — it determines block size,
    fractal height and the LSP key derivation.  The stage is written in
    the {!Snapshot} format and replayed by {!Ledger.load}, so the replica
    rebuilds every index, the query index included.  Returns the replica
    with its transfer statistics.  Defaults to
    {!Transport.default_policy} and [~resume:true] — the self-healing
    behaviour; pass {!Transport.no_retry} and [~resume:false] for a
    strict, fail-fast pull.

    [pool] (default {!Ledger_par.Domain_pool.default}) fans the staged
    π_c signature pre-check across domains: every staged journal whose
    recorded signer appears in the fetched membership has its client
    signature re-checked — purely, with no simulated-clock charges —
    before {!Ledger.load} replays anything.  A failing stage refuses (or,
    when resumed, heals) exactly like a failed load.  RPC staging itself
    stays sequential: the transport's seeded retry policy and the
    simulated clock are shared, deterministic state. *)
