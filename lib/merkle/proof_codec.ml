open Ledger_crypto

let w_step w { Proof.dir; digest } =
  Wire.w_u8 w (match dir with Proof.Left -> 0 | Proof.Right -> 1);
  Wire.w_hash w digest

let r_step r =
  let dir =
    match Wire.r_u8 r with
    | 0 -> Proof.Left
    | 1 -> Proof.Right
    | _ -> raise Wire.Corrupt
  in
  { Proof.dir; digest = Wire.r_hash r }

let w_path w path = Wire.w_list w (w_step w) path
let r_path r = Wire.r_list ~max:4096 r (fun () -> r_step r)

let w_node_set w peaks = Wire.w_list w (Wire.w_hash w) peaks
let r_node_set r = Wire.r_list ~max:256 r (fun () -> Wire.r_hash r)

let w_fam_proof w { Fam.jsn; epoch_paths; peak_index; peak_set } =
  Wire.w_int w jsn;
  Wire.w_list w (w_path w) epoch_paths;
  Wire.w_int w peak_index;
  w_node_set w peak_set

(* The length {!w_fam_proof} writes: fixed 8-byte counts and indices,
   33 bytes a path step, 32 a peak. *)
let fam_proof_size { Fam.epoch_paths; peak_set; _ } =
  List.fold_left
    (fun n path -> n + 8 + (33 * List.length path))
    32 epoch_paths
  + (32 * List.length peak_set)

let r_fam_proof r =
  let jsn = Wire.r_int r in
  let epoch_paths = Wire.r_list ~max:4096 r (fun () -> r_path r) in
  let peak_index = Wire.r_int r in
  let peak_set = r_node_set r in
  { Fam.jsn; epoch_paths; peak_index; peak_set }

let w_fam_anchored w = function
  | Fam.Within_sealed { epoch; path } ->
      Wire.w_u8 w 0;
      Wire.w_int w epoch;
      w_path w path
  | Fam.Beyond_anchor proof ->
      Wire.w_u8 w 1;
      w_fam_proof w proof

let w_range_proof w { Range_proof.size; first; last; support; peak_set } =
  Wire.w_int w size;
  Wire.w_int w first;
  Wire.w_int w last;
  Wire.w_list w
    (fun ((level, index), digest) ->
      Wire.w_int w level;
      Wire.w_int w index;
      Wire.w_hash w digest)
    support;
  w_node_set w peak_set

let r_range_proof r =
  let size = Wire.r_int r in
  let first = Wire.r_int r in
  let last = Wire.r_int r in
  let support =
    Wire.r_list ~max:65536 r (fun () ->
        let level = Wire.r_int r in
        let index = Wire.r_int r in
        let digest = Wire.r_hash r in
        ((level, index), digest))
  in
  let peak_set = r_node_set r in
  { Range_proof.size; first; last; support; peak_set }

let encode f v = Wire.encode (fun w -> f w v)

let encode_fam_proof = encode w_fam_proof
let decode_fam_proof b = Wire.decode b r_fam_proof
let encode_fam_anchored = encode w_fam_anchored
let encode_range_proof = encode w_range_proof
let decode_range_proof b = Wire.decode b r_range_proof

let w_consistency w proof =
  Wire.w_list w (fun chain -> Wire.w_list w (Wire.w_hash w) chain) proof

let r_consistency r =
  Wire.r_list ~max:64 r (fun () ->
      Wire.r_list ~max:64 r (fun () -> Wire.r_hash r))

let w_fam_extension w = function
  | Fam.Within_epoch { consistency; new_peaks } ->
      Wire.w_u8 w 0;
      w_consistency w consistency;
      w_node_set w new_peaks
  | Fam.Across_epochs { completion; epoch_root; chain; peak_index; peak_set } ->
      Wire.w_u8 w 1;
      w_consistency w completion;
      Wire.w_hash w epoch_root;
      Wire.w_list w (w_path w) chain;
      Wire.w_int w peak_index;
      w_node_set w peak_set

let r_fam_extension r =
  match Wire.r_u8 r with
  | 0 ->
      let consistency = r_consistency r in
      let new_peaks = r_node_set r in
      Fam.Within_epoch { consistency; new_peaks }
  | 1 ->
      let completion = r_consistency r in
      let epoch_root = Wire.r_hash r in
      let chain = Wire.r_list ~max:4096 r (fun () -> r_path r) in
      let peak_index = Wire.r_int r in
      let peak_set = r_node_set r in
      Fam.Across_epochs { completion; epoch_root; chain; peak_index; peak_set }
  | _ -> raise Wire.Corrupt

let encode_fam_extension = encode w_fam_extension
let decode_fam_extension b = Wire.decode b r_fam_extension
