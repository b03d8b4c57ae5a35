(* SHA-256 on native 63-bit ints.

   The compression loop keeps every quantity in one machine word and
   masks back to 32 bits only where an exact 32-bit value is required
   (rotations and the final state addition): intermediate sums of a few
   32-bit words stay below 2^36 and cannot overflow.  The message
   schedule is preallocated in the context and all hot-loop array and
   byte accesses are unchecked — indices are fixed by the algorithm. *)

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let mask32 = 0xFFFFFFFF

type ctx = {
  h : int array; (* 8 state words *)
  buf : bytes; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes absorbed *)
  w : int array; (* message schedule scratch *)
}

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
     0x1f83d9ab; 0x5be0cd19 |]

let init () =
  {
    h = Array.copy iv;
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
  }

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- 0

(* Works on an explicit state array so [finalize] can compress a copy of
   the running state without disturbing the context. *)
let compress_state h w block off =
  for i = 0 to 15 do
    let j = off + (i * 4) in
    Array.unsafe_set w i
      ((Char.code (Bytes.unsafe_get block j) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (j + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (j + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (j + 3)))
  done;
  for i = 16 to 63 do
    let w15 = Array.unsafe_get w (i - 15) in
    let w2 = Array.unsafe_get w (i - 2) in
    let s0 =
      ((w15 lsr 7) lor (w15 lsl 25))
      lxor ((w15 lsr 18) lor (w15 lsl 14))
      lxor (w15 lsr 3)
    in
    let s1 =
      ((w2 lsr 17) lor (w2 lsl 15))
      lxor ((w2 lsr 19) lor (w2 lsl 13))
      lxor (w2 lsr 10)
    in
    (* s0/s1 carry rotation bits above 2^32; a single mask at the store
       clears everything the lxor mixed in up there *)
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
      land mask32)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let e_ = !e in
    let s1 =
      (((e_ lsr 6) lor (e_ lsl 26))
      lxor ((e_ lsr 11) lor (e_ lsl 21))
      lxor ((e_ lsr 25) lor (e_ lsl 7)))
      land mask32
    in
    let ch = e_ land !f lxor (lnot e_ land !g) land mask32 in
    let t1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let a_ = !a in
    let s0 =
      (((a_ lsr 2) lor (a_ lsl 30))
      lxor ((a_ lsr 13) lor (a_ lsl 19))
      lxor ((a_ lsr 22) lor (a_ lsl 10)))
      land mask32
    in
    let maj = a_ land !b lxor (a_ land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := e_;
    e := (!d + t1) land mask32;
    d := !c;
    c := !b;
    b := a_;
    a := (t1 + s0 + maj) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32;
  h.(5) <- (h.(5) + !f) land mask32;
  h.(6) <- (h.(6) + !g) land mask32;
  h.(7) <- (h.(7) + !hh) land mask32

let compress ctx block off = compress_state ctx.h ctx.w block off

let update_sub ctx b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Sha256.update_sub";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Fill a partially filled block buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (64 - ctx.buf_len) in
    Bytes.blit b !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx b !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit b !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let update_char ctx c =
  Bytes.unsafe_set ctx.buf ctx.buf_len c;
  ctx.total <- ctx.total + 1;
  ctx.buf_len <- ctx.buf_len + 1;
  if ctx.buf_len = 64 then begin
    compress ctx ctx.buf 0;
    ctx.buf_len <- 0
  end

let update ctx b = update_sub ctx b 0 (Bytes.length b)
let update_string ctx s = update ctx (Bytes.unsafe_of_string s)

let write_length b off total_bits =
  for i = 0 to 7 do
    Bytes.set b (off + i) (Char.chr ((total_bits lsr ((7 - i) * 8)) land 0xFF))
  done

(* Non-destructive finalize: the padding blocks are compressed into a
   *copy* of the running state, so the context stays valid — callers can
   keep absorbing and finalize again (running digests of a stream).

   The padding itself is built in place.  Bytes of [ctx.buf] at or past
   [buf_len] are dead storage (every later [update_sub] overwrites them
   before reading), so the common case — fewer than 56 buffered bytes —
   pads directly inside [ctx.buf] and allocates nothing beyond the state
   copy and the digest. *)
let finalize ctx =
  let total_bits = ctx.total * 8 in
  let bl = ctx.buf_len in
  let h = Array.copy ctx.h in
  if bl + 9 <= 64 then begin
    (* one final block: 0x80, zeros, 64-bit big-endian bit length *)
    Bytes.set ctx.buf bl '\x80';
    Bytes.fill ctx.buf (bl + 1) (56 - (bl + 1)) '\000';
    write_length ctx.buf 56 total_bits;
    compress_state h ctx.w ctx.buf 0
  end
  else begin
    (* the length does not fit: a second, rare block carries it *)
    Bytes.set ctx.buf bl '\x80';
    Bytes.fill ctx.buf (bl + 1) (64 - (bl + 1)) '\000';
    compress_state h ctx.w ctx.buf 0;
    let last = Bytes.make 64 '\000' in
    write_length last 56 total_bits;
    compress_state h ctx.w last 0
  end;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = h.(i) in
    Bytes.set out (i * 4) (Char.chr ((v lsr 24) land 0xFF));
    Bytes.set out ((i * 4) + 1) (Char.chr ((v lsr 16) land 0xFF));
    Bytes.set out ((i * 4) + 2) (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set out ((i * 4) + 3) (Char.chr (v land 0xFF))
  done;
  out

let digest_bytes b =
  let ctx = init () in
  update ctx b;
  finalize ctx

let digest_string s = digest_bytes (Bytes.unsafe_of_string s)
