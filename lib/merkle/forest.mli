(** Shared core of the append-only Merkle structures.

    A forest stores, per level, the digests of every {e complete} subtree
    node.  Appending a leaf computes exactly the interior nodes that become
    complete — the O(1)-amortised insertion that the Shrubs tree (and hence
    fam and CM-Tree2) relies on.  Both commitment styles are derived from
    it:

    - {!peaks} — the frontier node-set (Shrubs commitment);
    - {!bagged_root} — a single root over the ragged tree, folding the
      peaks right-to-left (tim/Diem-style accumulator root).

    The store is one digest array per level, allocated when that level
    gets its first complete node.  A node dropped by a purge
    ({!forget_first_subtree}) is overwritten in place with one private
    [forgotten] digest, compared physically: reads of it raise
    [Not_found], and no real digest can pass for it. *)

open Ledger_crypto

type t

val create : unit -> t

val append : t -> Hash.t -> int
(** Append a leaf digest; returns its index. *)

val append_many : ?pool:Ledger_par.Domain_pool.t -> t -> Hash.t list -> int
(** Append a batch of leaves, completing the interior with one pass per
    level instead of one cascade per leaf.  The resulting forest is
    byte-identical to sequential {!append}s.  With [pool], each level's
    parent hashes are computed across the pool (pushes stay sequential
    and ascending, so the result is still byte-identical).  Returns the
    index of the first appended leaf (the pre-batch size when the list
    is empty). *)

val size : t -> int
(** Number of leaves appended. *)

val leaf : t -> int -> Hash.t
(** @raise Invalid_argument if out of range.
    @raise Not_found if forgotten. *)

val node : t -> level:int -> index:int -> Hash.t
(** Digest of the complete subtree node; levels count from 0 (leaves).
    @raise Not_found if the node is incomplete or was forgotten. *)

val peaks : t -> Proof.node_set
(** Roots of the maximal complete subtrees, leftmost first.  Empty for an
    empty forest. *)

val bagged_root : t -> Hash.t
(** Single root over all leaves: peaks folded right-to-left with
    {!Hash.combine}.  @raise Invalid_argument on an empty forest. *)

val prove_to_peak : t -> int -> Proof.path * int
(** [prove_to_peak t i] is the audit path from leaf [i] to the root of the
    peak containing it, together with the peak's position in {!peaks}. *)

val prove_bagged : t -> int -> Proof.path
(** Audit path from leaf [i] to {!bagged_root} — the tim proof, whose
    length grows with the forest size. *)

val forget_first_subtree : t -> level:int -> unit
(** Drop the stored digests strictly below node 0 of [level] (that node's
    own digest is retained), reclaiming space after a purge. *)

val stored_digests : t -> int
(** Number of digests currently held — the storage-overhead metric. *)

val freeze : t -> t
(** O(levels) immutable snapshot by structural sharing: per-level node
    arrays are shared with pinned counts, so later appends to the live
    forest are invisible through the snapshot, which stays safe to read
    from other domains.  {!forget_first_subtree} erasures remain visible
    in every level array the snapshot still shares with [t] (all of
    them unless [t] regrew a level after the snapshot; {!Fam} purges
    only sealed epochs, which never grow again).
    Only read on the result, unless it replaces [t] as the single
    writer's copy: [t] is then never appended to again, and appends to
    the result write only past every count a snapshot pins. *)

(** {1 Consistency (append-only extension) proofs}

    Prove that the forest at its current size is an append-only extension
    of the forest as it stood at [old_size]: every old peak is a complete
    interior node of the current tree at a position the verifier derives
    from the sizes alone.  The proof ships only sibling digests; all
    positions and directions are recomputed by the verifier, so a prover
    cannot relocate old data. *)

type consistency_proof = Hash.t list list
(** One sibling chain per old peak (ordered as the old peak set). *)

val prove_consistency : t -> old_size:int -> consistency_proof
(** @raise Invalid_argument unless [0 < old_size <= size t]. *)

val verify_consistency :
  old_size:int ->
  old_peaks:Proof.node_set ->
  new_size:int ->
  new_peaks:Proof.node_set ->
  consistency_proof ->
  bool
