(** The two-layer Clue Merged Tree (CM-Tree) — paper §IV, Fig. 6.

    CM-Tree1 is a Merkle Patricia Trie over SHA-3-scattered clue keys.
    The value stored at a clue's leaf is the serialized {e node-set
    commitment} (Shrubs root-proof set) of that clue's private Merkle
    accumulator, CM-Tree2.  Appending a journal to a clue therefore costs
    one O(1) CM-Tree2 insert plus one O(depth) MPT path rehash — "similar
    insertion cost" to ccMPT — while clue verification touches only the
    clue's own accumulator, O(m) instead of O(m·log n).

    Clue-oriented verification follows §IV-C: the server assembles ℂ_a
    (CM-Tree2 support cells, computed with {!Ledger_merkle.Range_proof})
    and ℂ_s (the CM-Tree1 walk); the client replays both layers. *)

open Ledger_crypto
open Ledger_merkle
open Ledger_mpt
module Wire = Ledger_crypto.Wire

type t

val create : unit -> t

val insert : t -> clue:string -> Hash.t -> int
(** [insert t ~clue digest] appends a journal digest to the clue's
    CM-Tree2 and refreshes CM-Tree1; returns the journal's version index
    (0-based) within the clue.  Single writer: the clue's published
    CM-Tree2 is left as it is; the digest goes into a header copy of it
    ({!Ledger_merkle.Shrubs.freeze}) that shares its node arrays, is
    written only past the published counts, and replaces it in the
    tree's one persistent clue map. *)

val freeze : t -> t
(** O(1) immutable snapshot: {!Ledger_mpt.Mpt.freeze} of CM-Tree1 plus
    the persistent clue map as it stands.  Because {!insert} never
    writes at or below a count a published CM-Tree2 pins, all reads and
    proofs work on the result from any domain while the original keeps
    inserting.  Only read on the result. *)

val entries : t -> clue:string -> int
(** Number of journals recorded under the clue. *)

val entry : t -> clue:string -> int -> Hash.t
(** Digest of the [i]-th journal of the clue. *)

val clue_count : t -> int
val root_hash : t -> Hash.t
(** CM-Tree1 root — recorded in every block as the verifiable snapshot. *)

val clue_commitment : t -> clue:string -> Hash.t option
(** Digest of the clue's current CM-Tree2 node-set. *)

val mpt_lookup_depth : t -> clue:string -> int
(** CM-Tree1 nodes visited when resolving the clue (for the top-layer
    cache / disk I/O cost model). *)

(** {1 Clue-oriented verification} *)

type clue_proof = {
  clue : string;
  version_range : int * int;  (** inclusive *)
  accumulator_proof : Range_proof.t;  (** ℂ_a: CM-Tree2 support cells *)
  trie_proof : Mpt.proof;  (** ℂ_s: CM-Tree1 walk for the clue *)
  committed_value : bytes;  (** the clue's CM-Tree1 value (serialized node-set) *)
}

val prove_clue : t -> clue:string -> ?first:int -> ?last:int -> unit -> clue_proof option
(** Whole-clue proof by default; [first]/[last] select a version range
    (the paper's "verify within a range specified by version"). *)

val verify_clue :
  root:Hash.t -> known:(int * Hash.t) list -> clue_proof -> bool
(** Client-side verification (level = client): [known] maps version
    indices to journal digests the client recomputed from retrieved
    payloads.  Checks (1) the CM-Tree2 reconstruction against the
    committed node-set and (2) the CM-Tree1 walk against [root]. *)

val verify_clue_server : t -> known:(int * Hash.t) list -> clue:string -> bool
(** Server-side verification (level = server): skips shipping ℂ_a/ℂ_s and
    checks the digests directly against the server's own trees (§IV-C,
    steps 1–3 and 6 only). *)

val stored_digests : t -> int

(** {1 Wire codec} *)

val w_clue_proof : Wire.writer -> clue_proof -> unit
val r_clue_proof : Wire.reader -> clue_proof

(** {1 Lineage extension (consistency) proofs}

    Between two reads of a clue, prove the new committed node-set is an
    append-only extension of the old one — the LSP cannot silently rewrite
    a clue's history between a client's visits. *)

val prove_clue_extension :
  t -> clue:string -> old_size:int -> Ledger_merkle.Forest.consistency_proof option

val verify_clue_extension :
  old_value:bytes ->
  new_value:bytes ->
  Ledger_merkle.Forest.consistency_proof ->
  bool
(** [old_value]/[new_value] are the clue's CM-Tree1 values (as carried in
    {!clue_proof}[.committed_value]) from the earlier and later reads. *)
