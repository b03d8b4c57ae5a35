(** Commit batching policy.

    Callers that append one journal at a time pay one network charge, one
    storage append and one accumulation cascade each.  A batcher buffers
    entries and pushes them through {!Ledger.append_batch}'s amortized
    pipeline when either bound of its policy trips — a size bound
    ([max_entries]) or a latency bound ([max_delay_us], measured on the
    ledger's simulated {!Ledger_storage.Clock}).  The committed history
    is byte-identical to unbatched appends (see [test_batch_diff]); only
    the cost profile changes. *)

open Ledger_crypto

type policy = {
  max_entries : int;  (** flush when this many entries are buffered *)
  max_delay_us : int64;
      (** flush when the oldest buffered entry has waited this long *)
  seal_on_flush : bool;
      (** seal the trailing partial block on every flush (final receipts
          immediately); [false] leaves it pending, as sequential appends
          would *)
}

type t

val create :
  ?policy:policy ->
  ?pool:Ledger_par.Domain_pool.t ->
  Ledger.t ->
  member:Roles.member ->
  priv:Ecdsa.private_key ->
  t
(** One batcher per appending member (entries are signed with the
    member's key at flush time).  [pool] (default
    {!Ledger_par.Domain_pool.default}) feeds every flush's
    {!Ledger.append_batch}.
    @raise Invalid_argument on a non-positive [max_entries] or negative
    [max_delay_us]. *)

val submit : t -> ?clues:string list -> bytes -> Receipt.t list
(** Buffer one entry.  If that trips the size or delay bound the batch is
    flushed and its receipts returned; otherwise [[]] (the entry is
    pending). *)

val tick : t -> Receipt.t list
(** Clock-driven flush: drains the buffer iff the delay bound expired.
    Call from the event loop; returns flushed receipts (usually [[]]). *)

val flush : t -> Receipt.t list
(** Unconditionally drain the buffer through one batched commit; [[]]
    when nothing is pending. *)

val close : t -> Receipt.t list
(** Drain any buffered entries through one final flush and mark the
    batcher closed: subsequent {!submit}/{!tick} raise
    [Invalid_argument].  Idempotent — a second [close] returns [[]].
    Guarantees no entry handed to {!submit} is silently dropped at
    shutdown. *)

val pending : t -> int
val flushes : t -> int
(** Batched commits performed over this batcher's lifetime. *)
