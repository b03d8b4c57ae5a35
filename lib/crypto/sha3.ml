(* SHA3-256: Keccak-f[1600], rate 136 bytes, on unboxed lanes.

   The state is a 200-byte [Bytes] of 25 little-endian 64-bit lanes.
   Each round reads the lanes into let-bound [int64]s, which ocamlopt
   keeps unboxed, and writes them back; storing an [int64] into an
   [int64 array] would box it instead, one small block per lane store.
   The message is absorbed in place, with the 0x06 ... 0x80 padding
   XORed into the state, so a digest allocates only its state and its
   output. *)

let round_constants =
  [| 0x0000000000000001L; 0x0000000000008082L; 0x800000000000808aL;
     0x8000000080008000L; 0x000000000000808bL; 0x0000000080000001L;
     0x8000000080008081L; 0x8000000000008009L; 0x000000000000008aL;
     0x0000000000000088L; 0x0000000080008009L; 0x000000008000000aL;
     0x000000008000808bL; 0x800000000000008bL; 0x8000000000008089L;
     0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
     0x000000000000800aL; 0x800000008000000aL; 0x8000000080008081L;
     0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L |]

(* Lane [i] of the 200-byte state, little-endian.  Unchecked: every
   caller passes a lane index below 25. *)
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] lane st i =
  let v = get64u st (8 * i) in
  if Sys.big_endian then swap64 v else v

let[@inline] set_lane st i v =
  set64u st (8 * i) (if Sys.big_endian then swap64 v else v)

let[@inline] xor a b = Int64.logxor a b

let[@inline] rotl x n =
  Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

(* One round of Keccak-f[1600] on the state in [st]: its 25 lanes are
   let-bound [int64]s, which ocamlopt keeps unboxed in registers and on
   the stack, and the rotation amounts are constants. *)
let round st rc =
  let a0 = lane st 0 and a1 = lane st 1 and a2 = lane st 2
  and a3 = lane st 3 and a4 = lane st 4 in
  let a5 = lane st 5 and a6 = lane st 6 and a7 = lane st 7
  and a8 = lane st 8 and a9 = lane st 9 in
  let a10 = lane st 10 and a11 = lane st 11 and a12 = lane st 12
  and a13 = lane st 13 and a14 = lane st 14 in
  let a15 = lane st 15 and a16 = lane st 16 and a17 = lane st 17
  and a18 = lane st 18 and a19 = lane st 19 in
  let a20 = lane st 20 and a21 = lane st 21 and a22 = lane st 22
  and a23 = lane st 23 and a24 = lane st 24 in
  (* theta *)
  let c0 = xor (xor (xor (xor a0 a5) a10) a15) a20 in
  let c1 = xor (xor (xor (xor a1 a6) a11) a16) a21 in
  let c2 = xor (xor (xor (xor a2 a7) a12) a17) a22 in
  let c3 = xor (xor (xor (xor a3 a8) a13) a18) a23 in
  let c4 = xor (xor (xor (xor a4 a9) a14) a19) a24 in
  let d0 = xor c4 (rotl c1 1) in
  let d1 = xor c0 (rotl c2 1) in
  let d2 = xor c1 (rotl c3 1) in
  let d3 = xor c2 (rotl c4 1) in
  let d4 = xor c3 (rotl c0 1) in
  (* rho and pi: b[y, 2x + 3y] = rotl (a[x, y] xor d[x]) r[x, y] *)
  let b0 = xor a0 d0 in
  let b1 = rotl (xor a6 d1) 44 in
  let b2 = rotl (xor a12 d2) 43 in
  let b3 = rotl (xor a18 d3) 21 in
  let b4 = rotl (xor a24 d4) 14 in
  let b5 = rotl (xor a3 d3) 28 in
  let b6 = rotl (xor a9 d4) 20 in
  let b7 = rotl (xor a10 d0) 3 in
  let b8 = rotl (xor a16 d1) 45 in
  let b9 = rotl (xor a22 d2) 61 in
  let b10 = rotl (xor a1 d1) 1 in
  let b11 = rotl (xor a7 d2) 6 in
  let b12 = rotl (xor a13 d3) 25 in
  let b13 = rotl (xor a19 d4) 8 in
  let b14 = rotl (xor a20 d0) 18 in
  let b15 = rotl (xor a4 d4) 27 in
  let b16 = rotl (xor a5 d0) 36 in
  let b17 = rotl (xor a11 d1) 10 in
  let b18 = rotl (xor a17 d2) 15 in
  let b19 = rotl (xor a23 d3) 56 in
  let b20 = rotl (xor a2 d2) 62 in
  let b21 = rotl (xor a8 d3) 55 in
  let b22 = rotl (xor a14 d4) 39 in
  let b23 = rotl (xor a15 d0) 41 in
  let b24 = rotl (xor a21 d1) 2 in
  (* chi, with iota folded into lane 0 *)
  set_lane st 0 (xor (xor b0 (Int64.logand (Int64.lognot b1) b2)) rc);
  set_lane st 1 (xor b1 (Int64.logand (Int64.lognot b2) b3));
  set_lane st 2 (xor b2 (Int64.logand (Int64.lognot b3) b4));
  set_lane st 3 (xor b3 (Int64.logand (Int64.lognot b4) b0));
  set_lane st 4 (xor b4 (Int64.logand (Int64.lognot b0) b1));
  set_lane st 5 (xor b5 (Int64.logand (Int64.lognot b6) b7));
  set_lane st 6 (xor b6 (Int64.logand (Int64.lognot b7) b8));
  set_lane st 7 (xor b7 (Int64.logand (Int64.lognot b8) b9));
  set_lane st 8 (xor b8 (Int64.logand (Int64.lognot b9) b5));
  set_lane st 9 (xor b9 (Int64.logand (Int64.lognot b5) b6));
  set_lane st 10 (xor b10 (Int64.logand (Int64.lognot b11) b12));
  set_lane st 11 (xor b11 (Int64.logand (Int64.lognot b12) b13));
  set_lane st 12 (xor b12 (Int64.logand (Int64.lognot b13) b14));
  set_lane st 13 (xor b13 (Int64.logand (Int64.lognot b14) b10));
  set_lane st 14 (xor b14 (Int64.logand (Int64.lognot b10) b11));
  set_lane st 15 (xor b15 (Int64.logand (Int64.lognot b16) b17));
  set_lane st 16 (xor b16 (Int64.logand (Int64.lognot b17) b18));
  set_lane st 17 (xor b17 (Int64.logand (Int64.lognot b18) b19));
  set_lane st 18 (xor b18 (Int64.logand (Int64.lognot b19) b15));
  set_lane st 19 (xor b19 (Int64.logand (Int64.lognot b15) b16));
  set_lane st 20 (xor b20 (Int64.logand (Int64.lognot b21) b22));
  set_lane st 21 (xor b21 (Int64.logand (Int64.lognot b22) b23));
  set_lane st 22 (xor b22 (Int64.logand (Int64.lognot b23) b24));
  set_lane st 23 (xor b23 (Int64.logand (Int64.lognot b24) b20));
  set_lane st 24 (xor b24 (Int64.logand (Int64.lognot b20) b21))


let keccak_f st =
  for r = 0 to 23 do
    round st (Array.unsafe_get round_constants r)
  done

let rate = 136 (* bytes, for 256-bit output *)

(* XOR [len] message bytes at [off] into the head of the state. *)
let absorb st msg off len =
  let lanes = len / 8 in
  for i = 0 to lanes - 1 do
    set_lane st i (xor (lane st i) (Bytes.get_int64_le msg (off + (8 * i))))
  done;
  for j = 8 * lanes to len - 1 do
    Bytes.set_uint8 st j
      (Bytes.get_uint8 st j lxor Bytes.get_uint8 msg (off + j))
  done

let digest_bytes msg =
  let st = Bytes.make 200 '\000' in
  let len = Bytes.length msg in
  let off = ref 0 in
  while len - !off >= rate do
    absorb st msg !off rate;
    keccak_f st;
    off := !off + rate
  done;
  (* last block: the tail, then msg || 0x06 || 0x00* || 0x80 *)
  let tail = len - !off in
  absorb st msg !off tail;
  Bytes.set_uint8 st tail (Bytes.get_uint8 st tail lxor 0x06);
  Bytes.set_uint8 st (rate - 1) (Bytes.get_uint8 st (rate - 1) lxor 0x80);
  keccak_f st;
  Bytes.sub st 0 32

let digest_string s = digest_bytes (Bytes.unsafe_of_string s)
