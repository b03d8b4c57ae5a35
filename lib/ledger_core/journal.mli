(** Journals — the ledger's atomic records (paper Fig. 2).

    Every operation lands as a journal with a unique incremental jsn.
    Besides normal payload journals there are:

    - {e time journals} anchoring TSA or T-Ledger evidence (§III-B);
    - {e purge journals} and their doubly-linked {e pseudo-genesis}
      (§III-A2);
    - {e occult journals} retaining only the hidden journal's digest
      (§III-A3, Protocol 2).

    Three digests matter (§III-C): the {e request-hash} the client signs
    (π_c, {!request_digest}), the {e tx-hash} the server derives for the
    whole journal (the accumulator leaf: {!Journal_codec.digest}, the
    hash of the journal's one encoding), and the block-hash computed at
    commit ({!Block.hash}).  Each hashes a {!Wire} layout, so distinct
    inputs never share hash input. *)

open Ledger_crypto
open Ledger_timenotary

type time_evidence =
  | Direct_tsa of Tsa.token
      (** two-way pegging straight to a TSA (costly). *)
  | Via_t_ledger of { entry_index : int; client_ts : int64; digest : Hash.t }
      (** bottom-layer Protocol 4 submission, referenced by T-Ledger index. *)

type purge_info = {
  purge_upto : int;  (** journals with jsn < purge_upto were erased *)
  pseudo_genesis_jsn : int;
  survivors : int list;  (** milestone journals kept in the survival stream *)
}

type genesis_snapshot = {
  replaced_purge_jsn : int;  (** back-link to the purge journal *)
  fam_commitment : Hash.t;  (** accumulator state at the purge point *)
  clue_root : Hash.t;  (** CM-Tree1 root at the purge point *)
  member_roster : Hash.t;  (** digest of the membership snapshot *)
}

type kind =
  | Normal
  | Time of time_evidence
  | Purge of purge_info
  | Occult of { target_jsn : int; retained_hash : Hash.t }
  | Pseudo_genesis of genesis_snapshot

type t = {
  jsn : int;
  kind : kind;
  client_id : Hash.t;  (** issuing member (or LSP for system journals) *)
  payload : bytes;
  clues : string list;
  client_ts : int64;
  server_ts : int64;
  nonce : int;  (** request nonce, needed to re-derive the request hash *)
  request_hash : Hash.t;
  client_sig : Ecdsa.signature option;  (** π_c *)
  cosigners : (Hash.t * Ecdsa.signature) list;
      (** additional signer id/signature pairs (multi-signed journals,
          purge/occult prerequisites). *)
}

val request_digest :
  ledger_uri:string ->
  kind_tag:string ->
  payload:bytes ->
  clues:string list ->
  client_ts:int64 ->
  nonce:int ->
  Hash.t
(** The digest a client signs before submission — binds payload, metadata
    and a nonce (paper §III-C).  It hashes the tag ["request"], then the
    URI, kind tag and payload as length-prefixed fields, the clues as a
    count-prefixed list of them, and [client_ts] and [nonce] as 8-byte
    big-endian ints. *)

val kind_tag : kind -> string
