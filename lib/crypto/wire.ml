(* A flat growable buffer: [len] bytes of [buf] are written.  Writers
   grow it by doubling and never shrink it, so a rewound writer serves
   encode after encode. *)
type writer = { mutable buf : bytes; mutable len : int }

let initial_len = 1024
let writer () = { buf = Bytes.create initial_len; len = 0 }

let grow w need =
  let cap = ref (2 * Bytes.length w.buf) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let b = Bytes.create !cap in
  Bytes.blit w.buf 0 b 0 w.len;
  w.buf <- b

let reserve w n = if w.len + n > Bytes.length w.buf then grow w (w.len + n)

let w_u8 w v =
  reserve w 1;
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (v land 0xFF));
  w.len <- w.len + 1

let w_int64 w v =
  reserve w 8;
  Bytes.set_int64_be w.buf w.len v;
  w.len <- w.len + 8

(* not [w_int64 w (Int64.of_int v)]: that call would box the int64 *)
let w_int w v =
  reserve w 8;
  Bytes.set_int64_be w.buf w.len (Int64.of_int v);
  w.len <- w.len + 8

let w_raw w b =
  let n = Bytes.length b in
  reserve w n;
  Bytes.unsafe_blit b 0 w.buf w.len n;
  w.len <- w.len + n

let w_bytes w b =
  w_int w (Bytes.length b);
  w_raw w b

let w_string w s = w_bytes w (Bytes.unsafe_of_string s)

let w_hash w h =
  reserve w 32;
  Hash.blit h w.buf w.len;
  w.len <- w.len + 32

let w_sig w s =
  reserve w 64;
  Ecdsa.blit_signature s w.buf w.len;
  w.len <- w.len + 64

let w_list w f l =
  w_int w (List.length l);
  List.iter f l

let w_option w f = function
  | Some v ->
      w_u8 w 1;
      f v
  | None -> w_u8 w 0

let contents w = Bytes.sub w.buf 0 w.len

(* One writer per domain, reused by every [encode] and [encode_digest]
   on it.  Systhreads of one domain share it, and an encoder may call
   another (a digest inside an encode), so the busy flag hands it to one
   caller at a time: whoever finds it set takes a fresh one.  A writer
   that grew past [scratch_cap] for one answer is dropped after it, so
   one 8 MiB frame does not pin 8 MiB per domain. *)
type scratch = { w : writer; busy : bool Atomic.t }

let scratch_cap = 64 * 1024
let fresh_scratch () = { w = writer (); busy = Atomic.make false }
let scratch_key = Domain.DLS.new_key fresh_scratch

let release s =
  if Bytes.length s.w.buf > scratch_cap then
    s.w.buf <- Bytes.create initial_len;
  Atomic.set s.busy false

let with_scratch fill finish =
  let s = Domain.DLS.get scratch_key in
  if Atomic.compare_and_set s.busy false true then begin
    s.w.len <- 0;
    match
      fill s.w;
      finish s.w
    with
    | v ->
        release s;
        v
    | exception e ->
        release s;
        raise e
  end
  else begin
    let w = writer () in
    fill w;
    finish w
  end

let encode fill = with_scratch fill contents

(* SHA-256 of the written bytes, hashed where they lie *)
let encode_digest fill = with_scratch fill (fun w -> Hash.digest_sub w.buf 0 w.len)

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
