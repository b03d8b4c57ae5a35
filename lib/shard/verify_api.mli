(** The unified Verify API, extended over a sharded fleet.

    Re-exports {!Ledger_core.Verify_api} (same [level], [target] and
    [outcome] types, so [open Ledger_shard] after [open Ledger_core]
    shadows it with a superset) and adds {!verify_sharded}: route the
    target to its owning shard, run the shard-local verification, and —
    when a sealed epoch covers the shard's state — compose it with the
    shard-inclusion-in-super-root check so the verdict is pinned to the
    single fleet digest.  Every call replays the shard-local proofs. *)

open Ledger_crypto

include module type of struct
  include Ledger_core.Verify_api
end

type sharded_outcome = {
  shard : int;  (** owning shard the target was routed to *)
  outcome : outcome;  (** the composed verdict *)
  super : Hash.t option;
      (** the super-root digest the verdict was pinned to, when a sealed
          epoch covered the shard's state at verification time *)
}

val verify_sharded :
  Sharded_ledger.t ->
  level:level ->
  ?shard:int ->
  target ->
  sharded_outcome
(** [~shard] names the owning shard for shard-local targets
    ([Existence], [Receipt_check] — their jsns are shard-local); clue
    targets may omit it and are routed by {!Shard_router.route_clue}.
    At [Client] level with a sealed epoch covering the shard,
    the shard-local proof replay is composed with
    {!Super_root.verify} — a journal only verifies if its shard's
    sealed root is included in the epoch super-root.  The composed
    verdict is recorded with {!record_audit} under the verifier
    ["shard<i>:<level>"].
    @raise Invalid_argument when a shard-local target omits [~shard]. *)
