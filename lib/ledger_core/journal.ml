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
  let buf = Buffer.create (Bytes.length payload + 128) in
  Buffer.add_string buf "request:";
  Buffer.add_string buf ledger_uri;
  Buffer.add_char buf '\000';
  Buffer.add_string buf kind_tag;
  Buffer.add_char buf '\000';
  Buffer.add_bytes buf payload;
  Buffer.add_char buf '\000';
  List.iter
    (fun c ->
      Buffer.add_string buf c;
      Buffer.add_char buf ';')
    clues;
  Buffer.add_string buf (Int64.to_string client_ts);
  Buffer.add_char buf ':';
  Buffer.add_string buf (string_of_int nonce);
  Hash.digest_bytes (Buffer.to_bytes buf)

let kind_digest_fields buf = function
  | Normal -> ()
  | Time (Direct_tsa token) ->
      Buffer.add_bytes buf (Hash.to_bytes token.Tsa.digest);
      Buffer.add_string buf (Int64.to_string token.Tsa.timestamp);
      Buffer.add_bytes buf (Hash.to_bytes token.Tsa.tsa_id);
      Buffer.add_bytes buf (Ecdsa.signature_to_bytes token.Tsa.signature)
  | Time (Via_t_ledger { entry_index; client_ts; digest }) ->
      Buffer.add_string buf (string_of_int entry_index);
      Buffer.add_string buf (Int64.to_string client_ts);
      Buffer.add_bytes buf (Hash.to_bytes digest)
  | Purge { purge_upto; pseudo_genesis_jsn; survivors } ->
      Buffer.add_string buf (string_of_int purge_upto);
      Buffer.add_string buf (string_of_int pseudo_genesis_jsn);
      List.iter (fun s -> Buffer.add_string buf (string_of_int s)) survivors
  | Occult { target_jsn; retained_hash } ->
      Buffer.add_string buf (string_of_int target_jsn);
      Buffer.add_bytes buf (Hash.to_bytes retained_hash)
  | Pseudo_genesis { replaced_purge_jsn; fam_commitment; clue_root; member_roster } ->
      Buffer.add_string buf (string_of_int replaced_purge_jsn);
      Buffer.add_bytes buf (Hash.to_bytes fam_commitment);
      Buffer.add_bytes buf (Hash.to_bytes clue_root);
      Buffer.add_bytes buf (Hash.to_bytes member_roster)

let tx_hash t =
  let buf = Buffer.create (Bytes.length t.payload + 256) in
  Buffer.add_string buf "journal:";
  Buffer.add_string buf (string_of_int t.jsn);
  Buffer.add_char buf '\000';
  Buffer.add_string buf (kind_tag t.kind);
  Buffer.add_char buf '\000';
  kind_digest_fields buf t.kind;
  Buffer.add_bytes buf (Hash.to_bytes t.client_id);
  Buffer.add_bytes buf t.payload;
  Buffer.add_char buf '\000';
  List.iter
    (fun c ->
      Buffer.add_string buf c;
      Buffer.add_char buf ';')
    t.clues;
  Buffer.add_string buf (Int64.to_string t.client_ts);
  Buffer.add_string buf (Int64.to_string t.server_ts);
  Buffer.add_string buf (string_of_int t.nonce);
  Buffer.add_bytes buf (Hash.to_bytes t.request_hash);
  (match t.client_sig with
  | Some s -> Buffer.add_bytes buf (Ecdsa.signature_to_bytes s)
  | None -> ());
  List.iter
    (fun (id, s) ->
      Buffer.add_bytes buf (Hash.to_bytes id);
      Buffer.add_bytes buf (Ecdsa.signature_to_bytes s))
    t.cosigners;
  Hash.digest_bytes (Buffer.to_bytes buf)
