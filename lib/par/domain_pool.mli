(** Fixed-size domain pool for batch-shaped hot paths.

    A pool provides deterministic-order data parallelism: every primitive
    partitions [0, n) into chunk ranges, each chunk writes only its own
    result slots, and the caller participates in draining chunks — so a
    pool of size 1 (and {!sequential}) is exactly inline execution, and
    results never depend on scheduling.  Tasks must be pure with respect
    to shared state (hashing, signature checking); all accumulator folds,
    clock charges and journal installs stay sequential in the callers
    (DESIGN.md §12).

    Re-entrant use from inside a pooled task runs inline on the worker
    domain rather than queueing, so nested batch operations cannot
    deadlock the pool. *)

type t

val sequential : t
(** Inline execution: no domains, no locks.  What tests use to pin the
    reference behaviour. *)

val create : ?domains:int -> unit -> t
(** [create ~domains:n ()] builds a pool of total parallelism [n] (the
    caller plus [n - 1] spawned worker domains), clamped to [[1, 128]].
    Defaults to [Domain.recommended_domain_count ()].  [n = 1] spawns
    nothing and behaves like {!sequential}. *)

val size : t -> int
(** Total parallelism, caller included; 1 for {!sequential}. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Only call with no job in flight;
    {!sequential} is a no-op. *)

val default : unit -> t
(** The lazily created process-wide pool, sized from [LEDGERDB_DOMAINS]
    when that parses as a positive integer, else from
    [Domain.recommended_domain_count ()] (0, negatives and garbage fall
    back rather than fail).  Safe to call from any domain: concurrent
    first callers all get the one published pool, and a pool built by a
    caller that lost the race is shut down. *)

val env_domains : unit -> int option
(** The [LEDGERDB_DOMAINS] override as {!default} would read it right
    now: [Some n] for a positive integer, [None] (fall back to the core
    count) for anything else.  Exposed so the parsing contract is
    directly testable. *)

val set_default : t -> unit
(** Replace the process-wide pool (e.g. the CLI's [--domains] flag).
    The previous pool, if any, is not shut down. *)

val map_chunks :
  t -> ?label:string -> ?min_chunk:int -> n:int -> (lo:int -> hi:int -> unit) ->
  unit
(** [map_chunks t ~n f] covers [0, n) with disjoint [f ~lo ~hi] calls —
    at most [4 × size t] chunks, never smaller than [min_chunk] items
    (default 1).  Runs inline when the pool has no workers, when [n <=
    min_chunk], or when called from inside a pooled task.  If a chunk
    raises, not-yet-started chunks are skipped and the first exception is
    re-raised in the caller once in-flight chunks drain.  [label] tags
    the [par_chunks_<label>] histogram. *)

val parallel_for :
  t -> ?label:string -> ?min_chunk:int -> n:int -> (int -> unit) -> unit
(** [parallel_for t ~n body] runs [body i] for every [i] in [0, n),
    chunked per {!map_chunks}. *)

val map_array :
  t -> ?label:string -> ?min_chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map] with result order guaranteed identical to the
    sequential map.  [f] is applied exactly once per element. *)

val map_chunked :
  t -> ?label:string -> ?min_chunk:int -> ('a array -> 'b array) -> 'a array ->
  'b array
(** [map_chunked t f arr] applies [f] once to each chunk of [arr] (as
    {!map_chunks} splits it, as a fresh sub-array) and concatenates the
    results in item order.  [f] must return one result per item
    ([Invalid_argument] otherwise); a batch primitive that shares work
    across its items — one inversion for many signatures — runs once per
    chunk this way. *)

val map_list :
  t -> ?label:string -> ?min_chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] (via an array), same order guarantee. *)
