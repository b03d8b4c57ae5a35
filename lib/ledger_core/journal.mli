(** Journals — the ledger's atomic records (paper Fig. 2).

    Every operation lands as a journal with a unique incremental jsn.
    Besides normal payload journals there are:

    - {e time journals} anchoring TSA or T-Ledger evidence (§III-B);
    - {e purge journals} and their doubly-linked {e pseudo-genesis}
      (§III-A2);
    - {e occult journals} retaining only the hidden journal's digest
      (§III-A3, Protocol 2).

    Three digests matter (§III-C): the {e request-hash} the client signs
    (π_c), the {e tx-hash} the server derives for the whole journal (the
    accumulator leaf), and the block-hash computed at commit. *)

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
    and a nonce (paper §III-C). *)

val tx_hash : t -> Hash.t
(** Server-side digest of the full journal: the accumulator leaf.  For an
    occulted journal's {e replacement} record this is the retained hash
    (Protocol 2 is applied by the ledger, not here). *)

val kind_tag : kind -> string
