(** The fractal accumulating model (fam) — paper §III-A1, Figs. 3(b) and 4.

    Journal digests accumulate into a Shrubs tree of fixed fractal height
    δ.  Rule 1: when the current tree fills (2^δ leaves), its root becomes
    the {e first leaf} (the "merged leaf") of a fresh tree, starting a new
    epoch.  Epoch 0 therefore holds 2^δ journals and every later epoch
    2^δ − 1 journals plus one merged leaf.

    Two verification regimes are provided:

    - {!prove} / {!verify} — full proofs that chain from the journal's
      epoch through every later epoch's merged leaf to the current
      node-set commitment (used when no trust has been established);
    - {!prove_anchored} / {!verify_anchored} — fam-aoa: against a
      {!anchor} (a checkpoint below which all data has already been
      verified), a journal in a sealed epoch needs only its O(δ) in-epoch
      path, and a journal in the live epoch at most O(δ−1) expected — the
      flat verification cost of Fig. 8(b). *)

open Ledger_crypto

type t

val create : delta:int -> t
(** [delta] is the fractal height (e.g. fam-15 ⇒ [delta = 15]). *)

val append : t -> Hash.t -> int
(** Append a journal digest; returns its jsn. *)

val append_many : ?pool:Ledger_par.Domain_pool.t -> t -> Hash.t list -> int
(** Accumulate a whole batch of journal digests at once: the batch is
    split at epoch boundaries and each in-epoch run updates the Shrubs
    interior in one pass per level.  Resulting state is identical to
    sequential {!append}s (with or without [pool], which parallelises
    only the per-level parent hashing); returns the first assigned jsn
    (the pre-batch size for an empty batch). *)

val size : t -> int
(** Number of journal digests appended (merged leaves not counted). *)

val epoch_count : t -> int
val epoch_of_jsn : t -> int -> int * int
(** [(epoch, position-in-epoch)] of a jsn.
    @raise Invalid_argument if out of range. *)

val commitment : t -> Hash.t
(** Digest of the live epoch's node-set — commits (transitively, through
    merged leaves) to the entire history. *)

val peaks : t -> Proof.node_set
val leaf : t -> int -> Hash.t
(** Journal digest by jsn. *)

val sealed_epoch_root : t -> int -> Hash.t
(** Root of a sealed epoch. @raise Invalid_argument if not sealed. *)

(** {1 Full verification} *)

type proof = {
  jsn : int;
  epoch_paths : Proof.path list;
      (** First the path inside the journal's epoch, then one path per
          later epoch, each lifting the previous epoch's root (sitting at
          the merged leaf) upward; the last path ends at a live peak. *)
  peak_index : int;
  peak_set : Proof.node_set;
}

val prove : t -> int -> proof

val verify : commitment:Hash.t -> leaf:Hash.t -> proof -> bool

(** {1 Anchored verification (fam-aoa)} *)

type anchor
(** A trusted checkpoint: sealed-epoch roots plus the live node-set at
    checkpoint time.  Everything it covers is considered verified. *)

val make_anchor : t -> anchor
(** Capture the current state as a trusted anchor (the caller is expected
    to have verified the ledger up to now, e.g. by a full audit). *)

val anchor_size : anchor -> int
(** Number of journals covered by the anchor. *)

val anchor_peaks : anchor -> Proof.node_set
(** The live node-set captured by the anchor — the commitment preimage a
    client can later feed to {!verify_extension}. *)

type anchored_proof =
  | Within_sealed of { epoch : int; path : Proof.path }
      (** O(δ) path to a sealed epoch root the anchor already trusts. *)
  | Beyond_anchor of proof
      (** Journal newer than the anchor: fall back to a full chained
          proof against the current commitment. *)

val prove_anchored : t -> anchor -> int -> anchored_proof

val verify_anchored :
  anchor -> current_commitment:Hash.t -> leaf:Hash.t -> anchored_proof -> bool

(** {1 Maintenance} *)

val purge_epochs_before : t -> int -> unit
(** [purge_epochs_before t e] forgets the interior digests of all epochs
    strictly below [e], keeping only their roots (the paper's optional fam
    node erasure during purge). *)

val stored_digests : t -> int

val freeze : t -> t
(** Immutable snapshot: sealed epochs are shared (they are append-final),
    the live epoch is {!Shrubs.freeze}d.  Safe to prove/verify against
    from other domains while the original keeps appending; purge
    erasures remain visible.  Only read on the result. *)

(** {1 Extension (consistency) proofs}

    Prove that the current commitment is an append-only extension of the
    commitment the verifier captured at [old_size] journals — so an LSP
    cannot rewrite history between two client visits without detection,
    even without a full audit. *)

type extension_proof =
  | Within_epoch of {
      consistency : Forest.consistency_proof;
      new_peaks : Proof.node_set;  (** preimage of the new commitment *)
    }  (** both commitments fall in the same (still live) epoch *)
  | Across_epochs of {
      completion : Forest.consistency_proof;
          (** old node-set → the sealed root of its epoch *)
      epoch_root : Hash.t;  (** that sealed root (authenticated by [chain]) *)
      chain : Proof.path list;
          (** merged-leaf paths from the following epoch to a live peak *)
      peak_index : int;
      peak_set : Proof.node_set;
    }

val prove_extension : t -> old_size:int -> extension_proof
(** @raise Invalid_argument unless [0 < old_size <= size t]. *)

val verify_extension :
  delta:int ->
  old_size:int ->
  old_peaks:Proof.node_set ->
  new_size:int ->
  new_commitment:Hash.t ->
  extension_proof ->
  bool
(** [old_peaks] is the node-set whose digest the verifier trusted as the
    old commitment; [delta] must be the ledger's fractal height. *)
