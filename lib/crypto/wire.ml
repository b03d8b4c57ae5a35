type writer = Buffer.t

let writer ?(initial = 256) () = Buffer.create initial
let w_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let w_int buf v =
  for i = 7 downto 0 do
    Buffer.add_char buf (Char.chr ((v asr (i * 8)) land 0xFF))
  done

let w_int64 buf v =
  for i = 7 downto 0 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (i * 8)) land 0xFF))
  done

let w_raw buf b = Buffer.add_bytes buf b

let w_bytes buf b =
  w_int buf (Bytes.length b);
  Buffer.add_bytes buf b

let w_string buf s = w_bytes buf (Bytes.unsafe_of_string s)
let w_hash buf h = Buffer.add_bytes buf (Hash.to_bytes h)

let w_list buf f l =
  w_int buf (List.length l);
  List.iter f l

let w_option buf f = function
  | Some v ->
      w_u8 buf 1;
      f v
  | None -> w_u8 buf 0

let contents = Buffer.to_bytes

type reader = { data : bytes; mutable pos : int }

exception Corrupt

let reader data = { data; pos = 0 }
let need r n = if n < 0 || r.pos + n > Bytes.length r.data then raise Corrupt

let r_u8 r =
  need r 1;
  let v = Char.code (Bytes.get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

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
    v :=
      Int64.logor (Int64.shift_left !v 8)
        (Int64.of_int (Char.code (Bytes.get r.data r.pos)));
    r.pos <- r.pos + 1
  done;
  !v

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
