open Ledger_crypto
open Ledger_timenotary

type time_evidence =
  | Direct_tsa of Tsa.token
  | Via_t_ledger of { entry_index : int; client_ts : int64; digest : Hash.t }

type purge_info = {
  purge_upto : int;
  pseudo_genesis_jsn : int;
  survivors : int list;
}

type genesis_snapshot = {
  replaced_purge_jsn : int;
  fam_commitment : Hash.t;
  clue_root : Hash.t;
  member_roster : Hash.t;
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
  client_id : Hash.t;
  payload : bytes;
  clues : string list;
  client_ts : int64;
  server_ts : int64;
  nonce : int;
  request_hash : Hash.t;
  client_sig : Ecdsa.signature option;
  cosigners : (Hash.t * Ecdsa.signature) list;
}

let kind_tag = function
  | Normal -> "normal"
  | Time _ -> "time"
  | Purge _ -> "purge"
  | Occult _ -> "occult"
  | Pseudo_genesis _ -> "pseudo-genesis"

let request_digest ~ledger_uri ~kind_tag ~payload ~clues ~client_ts ~nonce =
  Wire.encode_digest (fun w ->
      Wire.w_string w "request";
      Wire.w_string w ledger_uri;
      Wire.w_string w kind_tag;
      Wire.w_bytes w payload;
      Wire.w_list w (Wire.w_string w) clues;
      Wire.w_int64 w client_ts;
      Wire.w_int w nonce)
