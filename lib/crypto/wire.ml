type writer = Buffer.t

let writer ?(initial = 256) () = Buffer.create initial
let w_u8 buf v = Buffer.add_uint8 buf (v land 0xFF)
let w_int64 = Buffer.add_int64_be
let w_int buf v = w_int64 buf (Int64.of_int v)
let w_raw buf b = Buffer.add_bytes buf b

let w_bytes buf b =
  w_int buf (Bytes.length b);
  Buffer.add_bytes buf b

let w_string buf s = w_bytes buf (Bytes.unsafe_of_string s)
let w_hash buf h = Buffer.add_bytes buf (Hash.to_bytes h)
let w_sig buf s = Buffer.add_bytes buf (Ecdsa.signature_to_bytes s)

let w_list buf f l =
  w_int buf (List.length l);
  List.iter f l

let w_option buf f = function
  | Some v ->
      w_u8 buf 1;
      f v
  | None -> w_u8 buf 0

let contents = Buffer.to_bytes
let set_u32 b pos v = Bytes.set_int32_be b pos (Int32.of_int v)
let get_u32 b pos = Int32.to_int (Bytes.get_int32_be b pos) land 0xFFFF_FFFF

type reader = { data : bytes; mutable pos : int }

exception Corrupt

let reader data = { data; pos = 0 }
let need r n = if n < 0 || r.pos + n > Bytes.length r.data then raise Corrupt

let r_u8 r =
  need r 1;
  let v = Bytes.get_uint8 r.data r.pos in
  r.pos <- r.pos + 1;
  v

let r_int64 r =
  need r 8;
  let v = Bytes.get_int64_be r.data r.pos in
  r.pos <- r.pos + 8;
  v

let r_int r =
  need r 8;
  let v = Int64.to_int (Bytes.get_int64_be r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let r_raw r n =
  need r n;
  let b = Bytes.sub r.data r.pos n in
  r.pos <- r.pos + n;
  b

let r_bytes r =
  let len = r_int r in
  if len < 0 || len > 1 lsl 30 then raise Corrupt;
  r_raw r len

let r_string r = Bytes.to_string (r_bytes r)
let r_hash r = Hash.of_bytes (r_raw r 32)

let r_sig r =
  match Ecdsa.signature_of_bytes (r_raw r 64) with
  | Some s -> s
  | None -> raise Corrupt

let r_list ?(max = 1 lsl 24) r f =
  let n = r_int r in
  if n < 0 || n > max then raise Corrupt;
  List.init n (fun _ -> f ())

let r_option r f =
  match r_u8 r with 0 -> None | 1 -> Some (f ()) | _ -> raise Corrupt

let at_end r = r.pos = Bytes.length r.data

let decode data f =
  let r = reader data in
  match f r with
  | v -> if at_end r then Some v else None
  | exception Corrupt -> None
  | exception Invalid_argument _ -> None
