open Ledger_crypto

type t = {
  height : int;
  start_jsn : int;
  count : int;
  prev_hash : Hash.t;
  journal_commitment : Hash.t;
  clue_root : Hash.t;
  world_state_root : Hash.t;
  tx_root : Hash.t;
  timestamp : int64;
}

let w_block w t =
  Wire.w_int w t.height;
  Wire.w_int w t.start_jsn;
  Wire.w_int w t.count;
  Wire.w_hash w t.prev_hash;
  Wire.w_hash w t.journal_commitment;
  Wire.w_hash w t.clue_root;
  Wire.w_hash w t.world_state_root;
  Wire.w_hash w t.tx_root;
  Wire.w_int64 w t.timestamp

let r_block r =
  let height = Wire.r_int r in
  let start_jsn = Wire.r_int r in
  let count = Wire.r_int r in
  let prev_hash = Wire.r_hash r in
  let journal_commitment = Wire.r_hash r in
  let clue_root = Wire.r_hash r in
  let world_state_root = Wire.r_hash r in
  let tx_root = Wire.r_hash r in
  let timestamp = Wire.r_int64 r in
  { height; start_jsn; count; prev_hash; journal_commitment; clue_root;
    world_state_root; tx_root; timestamp }

let hash t =
  Wire.encode_digest (fun w ->
      Wire.w_string w "block";
      w_block w t)

let links_to prev next =
  next.height = prev.height + 1
  && Hash.equal next.prev_hash (hash prev)
  && next.start_jsn = prev.start_jsn + prev.count
