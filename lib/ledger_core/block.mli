(** Blocks / LedgerInfo (paper Fig. 2).

    Journals are committed in fixed-size blocks; each block records the
    root hashes of the journal accumulator (fam commitment) and the state
    accumulators (CM-Tree1 root and world-state root) as of its last
    journal, chained by the previous block hash.  The block hash is the
    third digest packed into receipts.

    A block has one byte layout, {!w_block}: the service's [Block_r]
    reply, each [blocks.ldb] frame and the input of {!hash} all use it. *)

open Ledger_crypto

type t = {
  height : int;
  start_jsn : int;
  count : int;
  prev_hash : Hash.t;
  journal_commitment : Hash.t;  (** fam node-set digest after the block *)
  clue_root : Hash.t;  (** CM-Tree1 root after the block *)
  world_state_root : Hash.t;
  tx_root : Hash.t;  (** Merkle root over the block's own tx hashes *)
  timestamp : int64;
}

val w_block : Wire.writer -> t -> unit
(** The block's one layout, every field in declaration order: the
    service's [Block_r] reply and each [blocks.ldb] frame. *)

val r_block : Wire.reader -> t

val hash : t -> Hash.t
(** SHA-256 of the length-prefixed tag ["block"] followed by
    {!w_block}: every field exactly once, ints fixed-width. *)

val links_to : t -> t -> bool
(** [links_to prev next] — hash chain adjacency check (audit step 4). *)
