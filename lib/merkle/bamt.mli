(** bAMT — the batched accumulated Merkle tree of the earlier LedgerDB
    paper (VLDB'20), referenced in §III-A1 as having tim-class
    verification cost.

    Transactions fill fixed-size batches; each sealed batch's Merkle root
    becomes a leaf of a single global accumulator.  Compared to fam:
    batch roots are {e equal} leaves (no fractal merge), so the global
    accumulator keeps growing and proof length is O(log(batches)) +
    O(log(batch)) — it decays with ledger size like tim, which is exactly
    why fam replaced it. *)

open Ledger_crypto

type t

val create : batch_size:int -> t
val append : t -> Hash.t -> int
val flush : t -> unit
(** Seal a partial batch. *)

val size : t -> int
val batch_count : t -> int
val root : t -> Hash.t
(** Root over all sealed batches plus the open batch.
    @raise Invalid_argument when empty. *)

type proof = { in_batch : Proof.path; batch_path : Proof.path; open_batch : bool }

val prove : t -> int -> proof
val verify : root:Hash.t -> leaf:Hash.t -> proof -> bool
