(** LSP receipts — the server's non-repudiation proof π_s (paper §III-C).

    A receipt packs the three digests (request-hash, tx-hash, block-hash)
    with the jsn and server timestamp, signed by the LSP.  Clients keep
    receipts externally: a later repudiation attempt by the LSP (deleting
    or rewriting the journal) is defeated by presenting the receipt.

    The LSP signs {!signing_digest}: the SHA-256 of the length-prefixed
    tag ["receipt"], the jsn as an 8-byte big-endian int, the three
    32-byte digests and the timestamp as an 8-byte big-endian int, all
    laid out with {!Wire}. *)

open Ledger_crypto

type t = {
  jsn : int;
  request_hash : Hash.t;
  tx_hash : Hash.t;
  block_hash : Hash.t;  (** {!Hash.zero} while the block is still open *)
  timestamp : int64;
  lsp_sig : Ecdsa.signature;
}

val signing_digest :
  jsn:int ->
  request_hash:Hash.t ->
  tx_hash:Hash.t ->
  block_hash:Hash.t ->
  timestamp:int64 ->
  Hash.t

val make :
  lsp_priv:Ecdsa.private_key ->
  jsn:int ->
  request_hash:Hash.t ->
  tx_hash:Hash.t ->
  block_hash:Hash.t ->
  timestamp:int64 ->
  t

val verify : lsp_pub:Ecdsa.public_key -> t -> bool
val is_final : t -> bool
(** A receipt is final once it carries a real block hash. *)
