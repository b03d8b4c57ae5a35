(** The Shrubs tree: an O(1)-insertion Merkle accumulator that commits to a
    {e node-set} (the frontier of complete-subtree roots) instead of a
    single root while the tree is not yet full (paper §III-A1, Fig. 3a).

    A Shrubs tree may be bounded ([capacity = 2^height]) — the building
    block of a fam epoch — or unbounded — the per-clue CM-Tree2
    accumulator. *)

open Ledger_crypto

type t

val create : ?height:int -> unit -> t
(** [create ~height ()] bounds the tree to [2^height] leaves; without
    [height] the tree grows indefinitely. *)

val append : t -> Hash.t -> int
(** @raise Invalid_argument when a bounded tree is full. *)

val append_many : ?pool:Ledger_par.Domain_pool.t -> t -> Hash.t list -> int
(** Batched {!append} via {!Forest.append_many}: one interior pass per
    level for the whole batch, identical resulting tree.  Returns the
    first appended index (the pre-batch {!size} for an empty batch,
    which is a no-op even on a full bounded tree).
    @raise Invalid_argument when the batch would overflow a bounded tree. *)

val size : t -> int
val capacity : t -> int option
val is_full : t -> bool
(** Always [false] for unbounded trees. *)

val leaf : t -> int -> Hash.t

val peaks : t -> Proof.node_set
(** The frontier node-set: the current commitment. *)

val commitment : t -> Hash.t
(** Canonical digest of {!peaks} — what gets stored upstream (e.g. as the
    clue's value in CM-Tree1). *)

val root : t -> Hash.t
(** The single peak of a {e full} bounded tree.
    @raise Invalid_argument if the tree is not full. *)

type proof = { path : Proof.path; peak_index : int; peak_set : Proof.node_set }
(** Existence proof of one leaf: an audit path to one of the peaks, plus
    the full node-set it belongs to. *)

val prove : t -> int -> proof

val verify : commitment:Hash.t -> leaf:Hash.t -> proof -> bool
(** The path must land on [peak_set.(peak_index)] and the node-set must
    digest to [commitment]. *)

val stored_digests : t -> int
val forest : t -> Forest.t
(** Underlying forest, exposed for fam's epoch sealing. *)

val freeze : t -> t
(** Immutable snapshot ({!Forest.freeze} of the underlying forest):
    read-only, safe to share across domains.  The result may instead
    become the single writer's copy, in place of [t], which is then
    never appended to again: appends to it write only past the counts
    [t] and every earlier snapshot pin. *)

(** {1 Consistency proofs} *)

val prove_consistency : t -> old_size:int -> Forest.consistency_proof
(** Prove the current node-set extends the node-set at [old_size]. *)

val verify_consistency :
  old_size:int ->
  old_peaks:Proof.node_set ->
  new_size:int ->
  new_peaks:Proof.node_set ->
  Forest.consistency_proof ->
  bool
