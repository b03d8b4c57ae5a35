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

let lines path = In_channel.with_open_text path In_channel.input_lines

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

let of_hex h =
  let b = Bytes.create (String.length h / 2) in
  for i = 0 to Bytes.length b - 1 do
    Bytes.set b i (Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))
  done;
  b

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

(* --- members.ldb: "role\thex-pubkey\thex-cert-or--\tname" per line ------ *)

let output_member oc ~role ~pub ~cert ~name =
  Printf.fprintf oc "%s\t%s\t%s\t%s\n" role (hex pub)
    (match cert with Some c -> hex c | None -> "-")
    name

let iter_members path f =
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | role :: pub_hex :: rest ->
          let cert_hex, name =
            match rest with
            | [ cert_hex; name ] -> (cert_hex, name)
            | [ name ] -> ("-", name) (* legacy two-column format *)
            | _ -> failwith "corrupt members record"
          in
          let role =
            match role with
            | "dba" -> Roles.Dba
            | "regulator" -> Roles.Regulator
            | _ -> Roles.Regular_user
          in
          (match Ecdsa.public_key_of_bytes (of_hex pub_hex) with
          | Some pub ->
              let certificate =
                if cert_hex = "-" then None
                else
                  match Ecdsa.signature_of_bytes (of_hex cert_hex) with
                  | Some signature ->
                      Some
                        { Roles.subject = Ecdsa.public_key_id pub; signature }
                  | None -> failwith ("corrupt certificate for " ^ name)
              in
              f ~name ~role ~certificate pub
          | None -> failwith ("corrupt member key for " ^ name))
      | _ -> ())
    (lines path)

(* --- blocks.ldb: every block field, hashes in hex, one block per line --- *)

let output_block oc (b : Block.t) =
  Printf.fprintf oc "%d %d %d %s %s %s %s %s %Ld\n" b.Block.height
    b.Block.start_jsn b.Block.count
    (Hash.to_hex b.Block.prev_hash)
    (Hash.to_hex b.Block.journal_commitment)
    (Hash.to_hex b.Block.clue_root)
    (Hash.to_hex b.Block.world_state_root)
    (Hash.to_hex b.Block.tx_root)
    b.Block.timestamp

let read_blocks path =
  List.map
    (fun line ->
      Scanf.sscanf line "%d %d %d %s %s %s %s %s %Ld"
        (fun height start_jsn count prev jc cr wsr txr timestamp ->
          { Block.height; start_jsn; count;
            prev_hash = Hash.of_hex prev;
            journal_commitment = Hash.of_hex jc;
            clue_root = Hash.of_hex cr;
            world_state_root = Hash.of_hex wsr;
            tx_root = Hash.of_hex txr; timestamp }))
    (lines path)

(* --- survivors.ldb: one survival-stream record per frame --------------- *)

let survivor_record ~jsn payload =
  let r = Bytes.create (Bytes.length payload + 16) in
  Bytes.blit_string (Printf.sprintf "%015d\000" jsn) 0 r 0 16;
  Bytes.blit payload 0 r 16 (Bytes.length payload);
  r

let survivor_of_record r =
  if Bytes.length r < 16 then None
  else
    Option.map
      (fun jsn -> (jsn, Bytes.sub r 16 (Bytes.length r - 16)))
      (int_of_string_opt (String.trim (Bytes.sub_string r 0 15)))

(* --- meta.ldb: "key=value" checkpoint lines ----------------------------- *)

type checkpoint = {
  size : int option;
  nonce : int option;
  commitment : Hash.t option;
  clue_root : Hash.t option;
}

let output_meta oc ~name ~size ~nonce ~commitment ~clue_root ~pseudo_genesis =
  Printf.fprintf oc
    "name=%s\nsize=%d\nnonce=%d\ncommitment=%s\nclue_root=%s\npseudo_genesis=%s\n"
    name size nonce
    (if size = 0 then "" else Hash.to_hex commitment)
    (Hash.to_hex clue_root)
    (match pseudo_genesis with Some j -> string_of_int j | None -> "-")

let read_meta path =
  let pair line i =
    (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
  in
  (* newest first, so a repeated key reads as its last value *)
  let kv =
    List.rev
      (List.filter_map
         (fun line -> Option.map (pair line) (String.index_opt line '='))
         (lines path))
  in
  let find k = List.assoc_opt k kv in
  let hash k hex =
    try Hash.of_hex hex
    with Invalid_argument _ -> failwith ("meta.ldb: bad " ^ k)
  in
  {
    size = Option.map int_of_string (find "size");
    nonce = Option.map int_of_string (find "nonce");
    commitment =
      (match find "commitment" with
      | None | Some "" -> None (* an empty ledger has no commitment *)
      | Some hex -> Some (hash "commitment" hex));
    clue_root = Option.map (hash "clue_root") (find "clue_root");
  }
