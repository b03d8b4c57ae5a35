(** The block-intensive model (bim) — Bitcoin-style linked blocks with
    per-block Merkle trees and SPV verification against a header chain
    (paper §II-A, §III-A1).

    A light client downloads and validates headers once; the header chain
    then acts as the block-oriented trusted anchor (boa), so a transaction
    proof is one in-block Merkle path.  Header storage is O(#blocks) —
    the overhead fam avoids. *)

open Ledger_crypto

type t

type header = {
  height : int;
  prev_hash : Hash.t;
  merkle_root : Hash.t;
  timestamp : int64;
}

val create : block_size:int -> t

val append : t -> ?timestamp:int64 -> Hash.t -> int
(** Append a transaction digest; seals a block automatically every
    [block_size] transactions.  Returns the global transaction index. *)

val flush : t -> unit
(** Seal a partial block, if any. *)

val size : t -> int
val block_count : t -> int
(** Sealed blocks. *)

val headers : t -> header list
(** The full header chain (a light client's state). *)

val verify_header_chain : header list -> bool

type proof = { block : int; block_header : header; path : Proof.path }

val prove : t -> int -> proof
(** @raise Invalid_argument if the transaction's block is not yet sealed. *)

val verify : headers:header array -> leaf:Hash.t -> proof -> bool
(** SPV: path must reach the Merkle root of the matching trusted header. *)

val header_bytes : t -> int
(** Bytes a light client must store — the boa space cost. *)
