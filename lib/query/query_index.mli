(** Ordered clue index backing the verifiable query layer.

    The main clue MPT ({!Ledger_mpt.Mpt.insert_string}) scatters keys with
    SHA-3, which destroys lexicographic order — fine for point lookups,
    useless for range scans.  This index keeps a second trie keyed by the
    {e raw} nibble path of the clue, so trie order is plain byte
    lexicographic order and {!Ledger_mpt.Mpt.prove_range} proofs certify
    completeness of prefix/range scans.

    Per clue the trie commits [(count, chain)] where [chain] is a rolling
    hash over the clue's (jsn, tx-hash) pairs:
    [h_0 = scatter clue], [h_i = H(h_(i-1) || jsn_i || tx_i)].  A verifier
    holding a suffix of the list and the digest [h_k] preceding it can
    replay the chain to the committed [h_count] — the basis for
    time-windowed queries whose dropped epochs are detectable.

    The index is a deterministic pure function of committed journal
    history: any auditor or replica replaying the journal stream derives
    the same root, which is what anchors query verification to the
    ledger's receipts. *)

open Ledger_crypto
open Ledger_mpt

type t

val create : unit -> t

val add : t -> clue:string -> jsn:int -> tx:Hash.t -> unit
(** Record that journal [jsn] (in transaction [tx]) carries [clue].
    Empty clues are ignored (they have no nibble path); a journal listing
    the same clue twice contributes one entry.  Single writer: the
    clue's published entry array is written only at its pinned count
    (or copied into a larger array when full), and a successor cell
    with the count one higher replaces it in the index's one persistent
    clue map.
    @raise Invalid_argument if [jsn] decreases for a clue. *)

val root : t -> Hash.t
val cardinal : t -> int
(** Distinct clues. *)

val entries : t -> int
(** Total (clue, jsn) pairs indexed. *)

val trie : t -> Mpt.t
(** The underlying ordered trie — range proofs, single-key ones for a
    missing clue included, are taken here. *)

val freeze : t -> t
(** O(1) immutable snapshot: {!Ledger_mpt.Mpt.freeze} of the trie plus
    the persistent clue map as it stands.  Since {!add} never writes at
    or below a count a published cell pins, every read ({!clue_count},
    {!slice}, {!chain_at}, {!first_at_or_after}, proofs, range scans)
    works on the result from any domain while the original keeps
    indexing.  Only read on the result. *)

(** {1 Key and commitment formats} *)

val key_of_clue : string -> string
(** The clue's bytes as a {!Ledger_mpt.Nibble} path, two hex digits a
    byte, so trie order is the clues' byte order. *)

val clue_of_key : string -> string option
(** Inverse of {!key_of_clue}; [None] for an odd-length key or one that is
    not a nibble path. *)

val chain_seed : string -> Hash.t
val chain_step : Hash.t -> int -> Hash.t -> Hash.t
val decode_value : bytes -> (int * Hash.t) option

(** {1 Per-clue reads} *)

val clue_count : t -> clue:string -> int

val slice : t -> clue:string -> offset:int -> limit:int -> (int * Hash.t) list
(** At most [limit] (jsn, tx) pairs from position [offset], oldest first;
    O(limit) allocation. *)

val chain_at : t -> clue:string -> int -> Hash.t
(** Chain digest after the first [n] entries ({!chain_seed} for [n = 0]).
    @raise Invalid_argument when [n] exceeds the clue's count. *)

val first_at_or_after : t -> clue:string -> int -> int
(** Index of the first entry with [jsn >= t]; the clue's count if none. *)

(** {1 Point proofs} *)

val prove_clue : t -> clue:string -> Mpt.proof option
