(** A Merkle Patricia Trie with 16-way branch nodes, extension nodes and
    leaf nodes, as in Ethereum's state tree (paper §IV-B1).

    Keys are {!Nibble} paths, strings of lowercase hex digits (usually
    SHA-3-scattered clue keys); values are opaque byte strings.  Node
    hashes are memoized and invalidated along the insertion path only, so
    an insert costs O(depth) rehashes — the "bottom-up CM-Tree1 root hash
    calculation" of §IV-B3.

    The node store holds no [option]: an absent root or child is an
    [Empty] node (hashing to {!Hash.zero}), a hash not yet computed is one
    private [unhashed] digest, and a branch no key ends at holds one
    private [no_value] buffer; both sentinels are compared physically, so
    no real digest or value can pass for one.

    Inclusion proofs present every node on the root-to-leaf walk with just
    enough material to recompute its digest; {!verify_proof} replays the
    walk against a trusted root.  Non-membership has one proof form, the
    pruned-subtrie range proof ({!prove_range}); a point miss is the range
    proof over a single-key interval (see {!compare_keys}).

    The trie also tracks the depth of each lookup so callers can model the
    paper's "top-layers cached in memory, bottom layers on disk" split
    ({!lookup_depth}). *)

open Ledger_crypto

type t

val create : unit -> t

val insert : t -> key:string -> bytes -> unit
(** Insert or replace.  @raise Invalid_argument on an empty key or one
    that is not a nibble path ({!Nibble.is_path}). *)

val insert_string : t -> key:string -> bytes -> unit
(** Convenience: scatter the key with SHA-3 first (clue-key behaviour). *)

val freeze : t -> t
(** O(path) immutable snapshot.  Inserts are path-copying, so the frozen
    trie keeps denoting the exact capture-time state while the original
    keeps mutating.  Freezing forces every reachable hash memo, making
    the snapshot safe to read from other domains without synchronisation
    (readers never write).  Only read on the result — inserting into a
    frozen trie is not meaningful. *)

val find : t -> key:string -> bytes option
val find_string : t -> key:string -> bytes option

val lookup_depth : t -> key:string -> int
(** Number of nodes visited when resolving [key] (0 if absent). *)

val cardinal : t -> int
val root_hash : t -> Hash.t
(** Digest of the root node; {!Hash.zero} for an empty trie. *)

(** {1 Proofs} *)

type proof_node =
  | Leaf_node of { path : string; value : bytes }
  | Extension_node of { path : string; child : Hash.t }
  | Branch_node of { children : Hash.t array; value : bytes option; descend : int }

type proof = proof_node list
(** Root-first walk. *)

val prove : t -> key:string -> proof option
(** [None] when the key is absent. *)

val prove_string : t -> key:string -> proof option

val verify_proof : root:Hash.t -> key:string -> value:bytes -> proof -> bool
val verify_proof_string : root:Hash.t -> key:string -> value:bytes -> proof -> bool

(** {1 Wire codec} *)

val w_proof : Ledger_crypto.Wire.writer -> proof -> unit
val r_proof : Ledger_crypto.Wire.reader -> proof

(** {1 Ordered keys}

    Keys sort in prefix-first lexicographic order over nibble paths: a
    proper prefix sorts before every extension of itself: on hex paths
    that is plain [String.compare].  Raw byte-string keys mapped through
    {!Nibble.of_string} therefore iterate in plain lexicographic byte
    order.  All ranges are half-open [[lo, hi)]; [hi =
    None] means unbounded.

    No key sorts strictly between [k] and [k ^ "0"] ([k] extended by
    nibble 0), so [[k, k ^ "0")] holds [k] alone: {!verify_range} over it yields
    [Some []] exactly when [k] is absent, which makes the range proof the
    point non-membership proof too. *)

val compare_keys : string -> string -> int

val key_in_range : string -> lo:string -> hi:string option -> bool

val iter_range :
  t -> lo:string -> ?hi:string -> (string -> bytes -> unit) -> unit
(** Visit every binding in [[lo, hi)] in ascending key order. *)

val take_range :
  t -> lo:string -> ?hi:string -> int -> (string * bytes) list * bool
(** First [n] bindings of the range in key order, plus a flag telling
    whether more remain — the pagination primitive. *)

(** {1 Range proofs (pruned subtrie)}

    A range proof is the trie with every subtree disjoint from [[lo, hi)]
    replaced by its bare hash.  The verifier recomputes the root digest,
    accepting pruned hashes only for provably out-of-range subtrees, so a
    matching digest certifies that the extracted bindings are {e complete}:
    the service cannot omit, add or alter a row without changing the root.
    Proof size is O(|result| + 16·depth) — sublinear in the trie. *)

type range_entry =
  | R_zero
  | R_pruned of Hash.t
  | R_leaf of { path : string; value : bytes }
  | R_ext of { path : string; child : range_entry }
  | R_branch of { children : range_entry array; value : bytes option }

type range_proof = range_entry

val prove_range : t -> lo:string -> hi:string option -> range_proof

val verify_range :
  root:Hash.t ->
  lo:string ->
  hi:string option ->
  range_proof ->
  (string * bytes) list option
(** [Some bindings] (in ascending key order) iff the proof re-hashes to
    [root] and every pruned subtree is disjoint from the range. *)

val w_range_proof : Ledger_crypto.Wire.writer -> range_proof -> unit
val r_range_proof : Ledger_crypto.Wire.reader -> range_proof
