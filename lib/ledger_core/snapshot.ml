open Ledger_crypto
open Ledger_storage

let journals_file = "journals.ldb"
let members_file = "members.ldb"
let blocks_file = "blocks.ldb"
let survivors_file = "survivors.ldb"
let meta_file = "meta.ldb"

let write ?(append = false) ~dir file f =
  let mode = if append then Open_append else Open_trunc in
  let flags = [ Open_wronly; mode; Open_creat; Open_binary ] in
  let oc = open_out_gen flags 0o644 (Filename.concat dir file) in
  let r = try f oc with e -> close_out_noerr oc; raise e in
  close_out oc;
  r

(* One frame holding the fields [f] writes. *)
let output_record oc f = Framing.write oc (Wire.encode f)

(* Every record of a framed file, decoded in file order.  Only the
   journals file may end in a torn tail: any other damage, and any
   record [decode] refuses, refuses the whole file. *)
let read_records path decode =
  let records, ending =
    Framing.fold path ~init:[] (fun acc ~offset:_ r ->
        Option.map (fun v -> v :: acc) (Wire.decode r decode))
  in
  let fail what =
    failwith
      (Printf.sprintf "%s: %s record at byte %d" (Filename.basename path) what
         ending.Framing.offset)
  in
  match ending.Framing.stop with
  | Framing.End -> List.rev records
  | Framing.Torn -> fail "torn"
  | Framing.Corrupt -> fail "corrupt"
  | Framing.Rejected -> fail "undecodable"

(* --- journals.ldb: [32-byte tx][Journal_codec encoding] per frame ------- *)

let output_journal oc ~tx encoded =
  Framing.write oc (Bytes.cat (Hash.to_bytes tx) encoded)

let fold_journals path ~init f =
  Framing.fold path ~init (fun acc ~offset:_ frame ->
      if Bytes.length frame < 32 then None
      else
        f acc
          ~tx:(Hash.of_bytes (Bytes.sub frame 0 32))
          (Bytes.sub frame 32 (Bytes.length frame - 32)))

(* --- members.ldb: a members_wire triple and an optional certificate ----- *)

let output_member oc member ~cert =
  output_record oc (fun w ->
      Roles.w_member w member;
      Wire.w_option w (Wire.w_sig w) cert)

let iter_members path f =
  List.iter
    (fun (name, role, certificate, pub) -> f ~name ~role ~certificate pub)
    (read_records path (fun r ->
         let name, role, pub = Roles.r_member r in
         let cert = Wire.r_option r (fun () -> Wire.r_sig r) in
         match (Roles.role_of_string role, Ecdsa.public_key_of_bytes pub) with
         | Some role, Some pub ->
             let certificate =
               Option.map
                 (fun signature ->
                   { Roles.subject = Ecdsa.public_key_id pub; signature })
                 cert
             in
             (name, role, certificate, pub)
         | _ -> raise Wire.Corrupt))

(* --- blocks.ldb: one Block frame per sealed block ----------------------- *)

let output_block oc b = output_record oc (fun w -> Block.w_block w b)
let read_blocks path = read_records path Block.r_block

(* --- survivors.ldb: one survival-stream record per frame --------------- *)

let survivor_record ~jsn payload =
  Wire.encode (fun w ->
      Wire.w_int w jsn;
      Wire.w_bytes w payload)

let r_survivor r =
  let jsn = Wire.r_int r in
  let payload = Wire.r_bytes r in
  (jsn, payload)

let survivor_of_record r = Wire.decode r r_survivor
let read_survivors path = read_records path r_survivor

(* --- meta.ldb: one checkpoint frame ------------------------------------- *)

type checkpoint = {
  name : string;
  size : int;
  block_count : int;
  commitment : Hash.t;
  clue_root : Hash.t;
  nonce : int;
  pseudo_genesis : int option;
}

let w_checkpoint w c =
  Wire.w_string w c.name;
  Wire.w_int w c.size;
  Wire.w_int w c.block_count;
  Wire.w_hash w c.commitment;
  Wire.w_hash w c.clue_root;
  Wire.w_int w c.nonce;
  Wire.w_option w (Wire.w_int w) c.pseudo_genesis

let r_checkpoint r =
  let name = Wire.r_string r in
  let size = Wire.r_int r in
  let block_count = Wire.r_int r in
  let commitment = Wire.r_hash r in
  let clue_root = Wire.r_hash r in
  let nonce = Wire.r_int r in
  let pseudo_genesis = Wire.r_option r (fun () -> Wire.r_int r) in
  { name; size; block_count; commitment; clue_root; nonce; pseudo_genesis }

let output_checkpoint oc c = output_record oc (fun w -> w_checkpoint w c)

let read_checkpoint path =
  match read_records path r_checkpoint with
  | [ c ] -> c
  | cs ->
      failwith
        (Printf.sprintf "%s: %d checkpoint records, expected 1"
           (Filename.basename path) (List.length cs))
