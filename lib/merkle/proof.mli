(** Merkle proof terms shared by every authenticated structure.

    A {!path} is the classic leaf-to-root audit path.  A {!node_set} is the
    Shrubs-style commitment used before a tree is full: the ordered roots
    of the maximal complete subtrees ("peaks"), leftmost first. *)

open Ledger_crypto

type direction = Left | Right
(** Which side the {e sibling} digest sits on. *)

type step = { dir : direction; digest : Hash.t }

type path = step list
(** Audit path ordered from the leaf upwards. *)

val apply : Hash.t -> path -> Hash.t
(** [apply leaf path] folds the path to the implied root digest. *)

val verify : leaf:Hash.t -> root:Hash.t -> path -> bool

val length : path -> int

type node_set = Hash.t list
(** Ordered peak digests, leftmost (largest subtree) first. *)

val node_set_digest : node_set -> Hash.t
(** Canonical digest of a node-set commitment: hash of the concatenated
    peaks.  This is what gets signed, anchored to the T-Ledger, or stored
    as a CM-Tree1 value. *)

val node_set_equal : node_set -> node_set -> bool
