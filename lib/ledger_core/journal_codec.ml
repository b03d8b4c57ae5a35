open Ledger_crypto
open Ledger_timenotary

(* The journal layout on top of {!Wire}'s field codecs: the magic, the
   one-byte kind tags, the field order and the list caps. *)

let w_tag w c = Wire.w_u8 w (Char.code c)

(* --- kinds ------------------------------------------------------------- *)

let w_kind w = function
  | Journal.Normal -> w_tag w 'N'
  | Journal.Time (Journal.Direct_tsa token) ->
      w_tag w 'T';
      Wire.w_hash w token.Tsa.digest;
      Wire.w_int64 w token.Tsa.timestamp;
      Wire.w_hash w token.Tsa.tsa_id;
      Wire.w_sig w token.Tsa.signature
  | Journal.Time (Journal.Via_t_ledger { entry_index; client_ts; digest }) ->
      w_tag w 'L';
      Wire.w_int w entry_index;
      Wire.w_int64 w client_ts;
      Wire.w_hash w digest
  | Journal.Purge { purge_upto; pseudo_genesis_jsn; survivors } ->
      w_tag w 'P';
      Wire.w_int w purge_upto;
      Wire.w_int w pseudo_genesis_jsn;
      Wire.w_list w (Wire.w_int w) survivors
  | Journal.Occult { target_jsn; retained_hash } ->
      w_tag w 'O';
      Wire.w_int w target_jsn;
      Wire.w_hash w retained_hash
  | Journal.Pseudo_genesis
      { replaced_purge_jsn; fam_commitment; clue_root; member_roster } ->
      w_tag w 'G';
      Wire.w_int w replaced_purge_jsn;
      Wire.w_hash w fam_commitment;
      Wire.w_hash w clue_root;
      Wire.w_hash w member_roster

let r_kind r =
  match Char.chr (Wire.r_u8 r) with
  | 'N' -> Journal.Normal
  | 'T' ->
      let digest = Wire.r_hash r in
      let timestamp = Wire.r_int64 r in
      let tsa_id = Wire.r_hash r in
      let signature = Wire.r_sig r in
      Journal.Time (Journal.Direct_tsa { Tsa.digest; timestamp; tsa_id; signature })
  | 'L' ->
      let entry_index = Wire.r_int r in
      let client_ts = Wire.r_int64 r in
      let digest = Wire.r_hash r in
      Journal.Time (Journal.Via_t_ledger { entry_index; client_ts; digest })
  | 'P' ->
      let purge_upto = Wire.r_int r in
      let pseudo_genesis_jsn = Wire.r_int r in
      let survivors = Wire.r_list ~max:1_000_000 r (fun () -> Wire.r_int r) in
      Journal.Purge { purge_upto; pseudo_genesis_jsn; survivors }
  | 'O' ->
      let target_jsn = Wire.r_int r in
      let retained_hash = Wire.r_hash r in
      Journal.Occult { target_jsn; retained_hash }
  | 'G' ->
      let replaced_purge_jsn = Wire.r_int r in
      let fam_commitment = Wire.r_hash r in
      let clue_root = Wire.r_hash r in
      let member_roster = Wire.r_hash r in
      Journal.Pseudo_genesis
        { replaced_purge_jsn; fam_commitment; clue_root; member_roster }
  | _ -> raise Wire.Corrupt

(* --- top level ---------------------------------------------------------- *)

let magic = "LDBJ1"

let w_journal w (j : Journal.t) =
  Wire.w_raw w (Bytes.unsafe_of_string magic);
  Wire.w_int w j.Journal.jsn;
  w_kind w j.Journal.kind;
  Wire.w_hash w j.Journal.client_id;
  Wire.w_bytes w j.Journal.payload;
  Wire.w_list w (Wire.w_string w) j.Journal.clues;
  Wire.w_int64 w j.Journal.client_ts;
  Wire.w_int64 w j.Journal.server_ts;
  Wire.w_int w j.Journal.nonce;
  Wire.w_hash w j.Journal.request_hash;
  Wire.w_option w (Wire.w_sig w) j.Journal.client_sig;
  Wire.w_list w
    (fun (id, s) ->
      Wire.w_hash w id;
      Wire.w_sig w s)
    j.Journal.cosigners

let encode j = Wire.encode (fun w -> w_journal w j)

let decode data =
  Wire.decode data (fun r ->
      if Bytes.to_string (Wire.r_raw r (String.length magic)) <> magic then
        raise Wire.Corrupt;
      let jsn = Wire.r_int r in
      let kind = r_kind r in
      let client_id = Wire.r_hash r in
      let payload = Wire.r_bytes r in
      let clues = Wire.r_list ~max:1_000_000 r (fun () -> Wire.r_string r) in
      let client_ts = Wire.r_int64 r in
      let server_ts = Wire.r_int64 r in
      let nonce = Wire.r_int r in
      let request_hash = Wire.r_hash r in
      let client_sig = Wire.r_option r (fun () -> Wire.r_sig r) in
      let cosigners =
        Wire.r_list ~max:10_000 r (fun () ->
            let id = Wire.r_hash r in
            let s = Wire.r_sig r in
            (id, s))
      in
      {
        Journal.jsn;
        kind;
        client_id;
        payload;
        clues;
        client_ts;
        server_ts;
        nonce;
        request_hash;
        client_sig;
        cosigners;
      })

let digest j = Wire.encode_digest (fun w -> w_journal w j)
