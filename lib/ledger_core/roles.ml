open Ledger_crypto

type role = Regular_user | Dba | Regulator

type member = { name : string; role : role; pub : Ecdsa.public_key; id : Hash.t }

type certificate = { subject : Hash.t; signature : Ecdsa.signature }

type registry = {
  by_id : (string, member) Hashtbl.t;
  certificates : (string, certificate) Hashtbl.t;
  mutable wire : (string * string * bytes) list;
      (* every member's wire triple, sorted; replaced only by [register] *)
}

let create_registry () =
  { by_id = Hashtbl.create 16; certificates = Hashtbl.create 16; wire = [] }

let key_of_id id = Hash.to_hex id

let role_to_string = function
  | Regular_user -> "user"
  | Dba -> "dba"
  | Regulator -> "regulator"

let role_of_string = function
  | "user" -> Some Regular_user
  | "dba" -> Some Dba
  | "regulator" -> Some Regulator
  | _ -> None

let w_member w (name, role, pub) =
  Wire.w_string w name;
  Wire.w_string w role;
  Wire.w_bytes w pub

let r_member r =
  let name = Wire.r_string r in
  let role = Wire.r_string r in
  let pub = Wire.r_bytes r in
  (name, role, pub)

(* Name order; equal names fall back to the key bytes, so the order
   never depends on registration order. *)
let compare_wire (n1, _, p1) (n2, _, p2) =
  match String.compare n1 n2 with 0 -> Bytes.compare p1 p2 | c -> c

let register reg ~name ~role pub =
  let id = Ecdsa.public_key_id pub in
  if Hashtbl.mem reg.by_id (key_of_id id) then
    invalid_arg ("Roles.register: key already registered for " ^ name);
  let m = { name; role; pub; id } in
  Hashtbl.replace reg.by_id (key_of_id id) m;
  reg.wire <-
    List.merge compare_wire
      [ (name, role_to_string role, Ecdsa.public_key_to_bytes pub) ]
      reg.wire;
  m

let find reg id = Hashtbl.find_opt reg.by_id (key_of_id id)

let members reg = Hashtbl.fold (fun _ m acc -> m :: acc) reg.by_id []
let members_wire reg = reg.wire

let find_by_name reg name =
  List.find_opt (fun m -> String.equal m.name name) (members reg)

let with_role reg role = List.filter (fun m -> m.role = role) (members reg)
let cardinal reg = Hashtbl.length reg.by_id

let certify ~ca_priv pub =
  let subject = Ecdsa.public_key_id pub in
  { subject; signature = Ecdsa.sign ca_priv subject }

let verify_certificate ~ca_pub pub cert =
  Hash.equal cert.subject (Ecdsa.public_key_id pub)
  && Ecdsa.verify ca_pub cert.subject cert.signature

let record_certificate reg cert =
  Hashtbl.replace reg.certificates (Hash.to_hex cert.subject) cert

let certificate_of reg id = Hashtbl.find_opt reg.certificates (Hash.to_hex id)
