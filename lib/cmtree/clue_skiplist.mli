(** The write-optimized clue SkipList (cSL) index — paper §IV-A.

    The earlier LedgerDB design indexed each clue's journals with a skip
    list: O(1) amortised insertion at the tail (journals arrive in jsn
    order) and O(log n) positional/range reads.  The CM-Tree supersedes
    it for {e verification}, but the cSL remains the retrieval index that
    maps a clue to its journal sequence numbers.

    This implementation is a classic randomised skip list specialised for
    monotone tail insertion, with deterministic level pseudo-randomness
    (seeded per list) so tests and benches are reproducible.

    A list is sized to the levels it uses: the head and the per-level
    tail fingers start one level high and double, up to 24 levels, when a
    drawn level outgrows them, and forward links end at one shared
    sentinel rather than an option box.  A one-element list holds about
    40 words (128 with fixed 24-level arrays), which matters because the
    ledger keeps one list per clue.  Level draws do not depend on the
    sizing, so {!level_count} and {!search_steps} are as before. *)

type t

val create : ?seed:int -> unit -> t

val append : t -> int -> unit
(** Insert a jsn at the tail.  @raise Invalid_argument if not strictly
    greater than the current maximum (journals arrive in order). *)

val length : t -> int
val mem : t -> int -> bool
(** O(log n) search. *)

val nth : t -> int -> int option
(** [nth t k] is the [k]-th smallest jsn. *)

val to_list : t -> int list
(** Ascending. *)

val range : t -> lo:int -> hi:int -> int list
(** All jsns in [[lo, hi]], ascending — the version-boundary lookup of
    clue range verification. *)

val min_elt : t -> int option
val max_elt : t -> int option

val search_steps : t -> int -> int
(** Number of node visits for [mem] — exposes the O(log n) behaviour for
    tests and the index ablation. *)

val level_count : t -> int
