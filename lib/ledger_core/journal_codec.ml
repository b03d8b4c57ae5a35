open Ledger_crypto
open Ledger_timenotary

(* Primitive writers: varint-free fixed-width framing for simplicity and
   total decoding. *)

let w_int buf v =
  for i = 7 downto 0 do
    Buffer.add_char buf (Char.chr ((v lsr (i * 8)) land 0xFF))
  done

let w_int64 buf v =
  for i = 7 downto 0 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (i * 8)) land 0xFF))
  done

let w_bytes buf b =
  w_int buf (Bytes.length b);
  Buffer.add_bytes buf b

let w_string buf s = w_bytes buf (Bytes.unsafe_of_string s)
let w_hash buf h = Buffer.add_bytes buf (Hash.to_bytes h)
let w_sig buf s = Buffer.add_bytes buf (Ecdsa.signature_to_bytes s)

type reader = { data : bytes; mutable pos : int }

exception Corrupt

let need r n = if r.pos + n > Bytes.length r.data then raise Corrupt

let r_int r =
  need r 8;
  let v = ref 0 in
  for _ = 1 to 8 do
    v := (!v lsl 8) lor Char.code (Bytes.get r.data r.pos);
    r.pos <- r.pos + 1
  done;
  !v

let r_int64 r =
  need r 8;
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code (Bytes.get r.data r.pos)));
    r.pos <- r.pos + 1
  done;
  !v

let r_bytes r =
  let len = r_int r in
  if len < 0 then raise Corrupt;
  need r len;
  let b = Bytes.sub r.data r.pos len in
  r.pos <- r.pos + len;
  b

let r_string r = Bytes.to_string (r_bytes r)

let r_hash r =
  need r 32;
  let h = Hash.of_bytes (Bytes.sub r.data r.pos 32) in
  r.pos <- r.pos + 32;
  h

let r_sig r =
  need r 64;
  match Ecdsa.signature_of_bytes (Bytes.sub r.data r.pos 64) with
  | Some s ->
      r.pos <- r.pos + 64;
      s
  | None -> raise Corrupt

(* --- kinds ------------------------------------------------------------- *)

let w_kind buf = function
  | Journal.Normal -> Buffer.add_char buf 'N'
  | Journal.Time (Journal.Direct_tsa token) ->
      Buffer.add_char buf 'T';
      w_hash buf token.Tsa.digest;
      w_int64 buf token.Tsa.timestamp;
      w_hash buf token.Tsa.tsa_id;
      w_sig buf token.Tsa.signature
  | Journal.Time (Journal.Via_t_ledger { entry_index; client_ts; digest }) ->
      Buffer.add_char buf 'L';
      w_int buf entry_index;
      w_int64 buf client_ts;
      w_hash buf digest
  | Journal.Purge { purge_upto; pseudo_genesis_jsn; survivors } ->
      Buffer.add_char buf 'P';
      w_int buf purge_upto;
      w_int buf pseudo_genesis_jsn;
      w_int buf (List.length survivors);
      List.iter (w_int buf) survivors
  | Journal.Occult { target_jsn; retained_hash } ->
      Buffer.add_char buf 'O';
      w_int buf target_jsn;
      w_hash buf retained_hash
  | Journal.Pseudo_genesis
      { replaced_purge_jsn; fam_commitment; clue_root; member_roster } ->
      Buffer.add_char buf 'G';
      w_int buf replaced_purge_jsn;
      w_hash buf fam_commitment;
      w_hash buf clue_root;
      w_hash buf member_roster

let r_kind r =
  need r 1;
  let tag = Bytes.get r.data r.pos in
  r.pos <- r.pos + 1;
  match tag with
  | 'N' -> Journal.Normal
  | 'T' ->
      let digest = r_hash r in
      let timestamp = r_int64 r in
      let tsa_id = r_hash r in
      let signature = r_sig r in
      Journal.Time (Journal.Direct_tsa { Tsa.digest; timestamp; tsa_id; signature })
  | 'L' ->
      let entry_index = r_int r in
      let client_ts = r_int64 r in
      let digest = r_hash r in
      Journal.Time (Journal.Via_t_ledger { entry_index; client_ts; digest })
  | 'P' ->
      let purge_upto = r_int r in
      let pseudo_genesis_jsn = r_int r in
      let n = r_int r in
      if n < 0 || n > 1_000_000 then raise Corrupt;
      let survivors = List.init n (fun _ -> r_int r) in
      Journal.Purge { purge_upto; pseudo_genesis_jsn; survivors }
  | 'O' ->
      let target_jsn = r_int r in
      let retained_hash = r_hash r in
      Journal.Occult { target_jsn; retained_hash }
  | 'G' ->
      let replaced_purge_jsn = r_int r in
      let fam_commitment = r_hash r in
      let clue_root = r_hash r in
      let member_roster = r_hash r in
      Journal.Pseudo_genesis
        { replaced_purge_jsn; fam_commitment; clue_root; member_roster }
  | _ -> raise Corrupt

(* --- top level ---------------------------------------------------------- *)

let magic = "LDBJ1"

let encode (j : Journal.t) =
  let buf = Buffer.create (Bytes.length j.Journal.payload + 256) in
  Buffer.add_string buf magic;
  w_int buf j.Journal.jsn;
  w_kind buf j.Journal.kind;
  w_hash buf j.Journal.client_id;
  w_bytes buf j.Journal.payload;
  w_int buf (List.length j.Journal.clues);
  List.iter (w_string buf) j.Journal.clues;
  w_int64 buf j.Journal.client_ts;
  w_int64 buf j.Journal.server_ts;
  w_int buf j.Journal.nonce;
  w_hash buf j.Journal.request_hash;
  (match j.Journal.client_sig with
  | Some s ->
      Buffer.add_char buf '\001';
      w_sig buf s
  | None -> Buffer.add_char buf '\000');
  w_int buf (List.length j.Journal.cosigners);
  List.iter
    (fun (id, s) ->
      w_hash buf id;
      w_sig buf s)
    j.Journal.cosigners;
  Buffer.to_bytes buf

let decode data =
  try
    let r = { data; pos = 0 } in
    need r (String.length magic);
    if Bytes.sub_string data 0 (String.length magic) <> magic then raise Corrupt;
    r.pos <- String.length magic;
    let jsn = r_int r in
    let kind = r_kind r in
    let client_id = r_hash r in
    let payload = r_bytes r in
    let n_clues = r_int r in
    if n_clues < 0 || n_clues > 1_000_000 then raise Corrupt;
    let clues = List.init n_clues (fun _ -> r_string r) in
    let client_ts = r_int64 r in
    let server_ts = r_int64 r in
    let nonce = r_int r in
    let request_hash = r_hash r in
    need r 1;
    let has_sig = Bytes.get r.data r.pos in
    r.pos <- r.pos + 1;
    let client_sig =
      match has_sig with
      | '\001' -> Some (r_sig r)
      | '\000' -> None
      | _ -> raise Corrupt
    in
    let n_cosigners = r_int r in
    if n_cosigners < 0 || n_cosigners > 10_000 then raise Corrupt;
    let cosigners =
      List.init n_cosigners (fun _ ->
          let id = r_hash r in
          let s = r_sig r in
          (id, s))
    in
    if r.pos <> Bytes.length data then raise Corrupt;
    Some
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
      }
  with Corrupt -> None

let digest j = Hash.digest_bytes (encode j)
