(** Deterministic clue → shard placement.

    Horizontal partitioning only stays verifiable if placement is a pure
    public function: any client, auditor or replica must be able to
    recompute which shard owns a journal from the journal alone, with no
    routing table to trust.  The router scatters the journal's {e routing
    key} — its first clue, or the payload digest for clue-less journals —
    through SHA-256 and reduces it mod the shard count.

    Routing by the {e first} clue keeps every version of a clue's
    N-lineage on one shard, so CM-Tree clue proofs never span shards.
    Journals carrying several clues are placed by the first; secondary
    clues index normally on the owning shard (a cross-shard clue query
    therefore fans out — see {!Verify_api.verify_sharded}). *)

type t

val create : shards:int -> t
(** @raise Invalid_argument unless [1 <= shards <= 1024]. *)

val route : t -> clues:string list -> payload:bytes -> int
(** [route_key] of [routing_key] — the placement function used by
    append, verification and the service dispatcher alike. *)

val route_clue : t -> string -> int
(** Owning shard of a clue's lineage. *)
