type fe = Uint256.t

let p =
  Uint256.of_hex
    "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"

let n =
  Uint256.of_hex
    "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"

let gx =
  Uint256.of_hex
    "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"

let gy =
  Uint256.of_hex
    "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"

(* GLV endomorphism: (x, y) -> (beta*x, y) equals multiplication by
   lambda, where beta^3 = 1 (mod p) and lambda^3 = 1 (mod n). *)
let beta =
  Uint256.of_hex
    "7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee"

let lambda =
  Uint256.of_hex
    "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72"

(* Montgomery's trick: invert a whole array of nonzero elements with a
   single modular inversion and 3(k-1) multiplications. *)
let batch_invert ~one ~mul ~inv xs =
  let k = Array.length xs in
  if k = 0 then [||]
  else begin
    let prefix = Array.make k one in
    let acc = ref one in
    for i = 0 to k - 1 do
      prefix.(i) <- !acc;
      acc := mul !acc xs.(i)
    done;
    let out = Array.make k one in
    let suffix = ref (inv !acc) in
    for i = k - 1 downto 0 do
      out.(i) <- mul !suffix prefix.(i);
      suffix := mul !suffix xs.(i)
    done;
    out
  end

(* ======================================================================
   Fast field kernel: ten little-endian limbs of 26 bits, each held as an
   unboxed int64 in an 80-byte [Bytes].

   ocamlopt without flambda keeps an [int64] unboxed while it lives in a
   let-bound local, and reads and writes a [Bytes] slot with unchecked
   64-bit loads and stores, so the comba bodies below run on untagged
   machine words and allocate nothing; an [int array] would pay a tag
   fix-up on every product and sum.  Limb products are <= 2^52·m² for
   inputs of magnitude m, and a column sums at most ten of them plus a
   carry, staying below 2^63 for m <= 14.  The pseudo-Mersenne structure
   folds in one shot: 2^260 = 2^36 + 15632 (mod p), so a high limb h at
   weight 2^(260+26j) contributes h·15632 at limb j and h·2^10 at limb
   j+1, and what is left at 2^256 folds as 2^32 + 977.

   Weak reduction.  [mul_into], [sqr_into] and [normalize_weak] return a
   *weak* value: limbs 0..8 below 2^26 and limb 9 at most 2^22, so the
   value is below 2p and congruent to the element, but may be p too big.
   Every stored coordinate, table entry and accumulator value is weak.
   A full reduction to the canonical value (< p) happens only where a
   value is encoded ([to_u256]): a weak value is zero exactly when its
   limbs spell 0 or p ([is_zero]), and two are equal when their weak
   difference is zero ([equal]).

   Multiplication, squaring, negation and the lazy sums below have
   destination-passing forms [op_into r ...] that write the result into
   storage the caller owns and allocate nothing; where an allocating
   form exists it is a wrapper over the [_into] one.  Every [_into] form
   reads all of its input limbs before it writes [r], so [r] may alias
   an input.  Only the point formulas below write into field elements,
   and only into scratch allocated for one call: a value that has left
   that call as part of a point or table is never mutated again, so
   values can be shared freely across domains.
   ====================================================================== *)

module Fe = struct
  type t = Bytes.t

  let nl = 10
  let size = 8 * nl

  external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
  external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
  external ( +^ ) : int64 -> int64 -> int64 = "%int64_add"
  external ( -^ ) : int64 -> int64 -> int64 = "%int64_sub"
  external ( *^ ) : int64 -> int64 -> int64 = "%int64_mul"
  external band : int64 -> int64 -> int64 = "%int64_and"
  external bor : int64 -> int64 -> int64 = "%int64_or"
  external bxor : int64 -> int64 -> int64 = "%int64_xor"
  external shl : int64 -> int -> int64 = "%int64_lsl"
  external shr : int64 -> int -> int64 = "%int64_lsr"

  let mask = 0x3FFFFFF (* 2^26 - 1 *)
  let[@inline] lo s = band s 0x3FFFFFFL
  let[@inline] hi s = shr s 26
  let create () = Bytes.make size '\000'

  let of_int v =
    let a = create () in
    set a 0 (Int64.of_int v);
    a

  let one () = of_int 1

  (* little-endian 26-bit limbs of p = 2^256 - 2^32 - 977 *)
  let p_limbs =
    [|
      0x3fffc2f; 0x3ffffbf; 0x3ffffff; 0x3ffffff; 0x3ffffff; 0x3ffffff;
      0x3ffffff; 0x3ffffff; 0x3ffffff; 0x03fffff;
    |]

  let p_fe =
    let a = create () in
    Array.iteri (fun j l -> set a (8 * j) (Int64.of_int l)) p_limbs;
    a

  (* Carry-propagate a value of any magnitude in place and fold its top
     down once: the result is weak. *)
  let normalize_weak r =
    let r0 = get r 0 and r1 = get r 8 and r2 = get r 16 and r3 = get r 24
    and r4 = get r 32 and r5 = get r 40 and r6 = get r 48
    and r7 = get r 56 and r8 = get r 64 and r9 = get r 72 in
    let c = hi r0 and r0 = lo r0 in
    let s = r1 +^ c in
    let r1 = lo s and c = hi s in
    let s = r2 +^ c in
    let r2 = lo s and c = hi s in
    let s = r3 +^ c in
    let r3 = lo s and c = hi s in
    let s = r4 +^ c in
    let r4 = lo s and c = hi s in
    let s = r5 +^ c in
    let r5 = lo s and c = hi s in
    let s = r6 +^ c in
    let r6 = lo s and c = hi s in
    let s = r7 +^ c in
    let r7 = lo s and c = hi s in
    let s = r8 +^ c in
    let r8 = lo s and c = hi s in
    let s = r9 +^ c in
    (* bits 22 and up of limb 9 sit at 2^256 = 2^32 + 977 *)
    let h = shr s 22 and r9 = band s 0x3FFFFFL in
    let s = r0 +^ (h *^ 977L) in
    let r0 = lo s and c = hi s in
    let s = r1 +^ shl h 6 +^ c in
    let r1 = lo s and c = hi s in
    let s = r2 +^ c in
    let r2 = lo s and c = hi s in
    let s = r3 +^ c in
    let r3 = lo s and c = hi s in
    let s = r4 +^ c in
    let r4 = lo s and c = hi s in
    let s = r5 +^ c in
    let r5 = lo s and c = hi s in
    let s = r6 +^ c in
    let r6 = lo s and c = hi s in
    let s = r7 +^ c in
    let r7 = lo s and c = hi s in
    let s = r8 +^ c in
    let r8 = lo s and c = hi s in
    set r 0 r0;
    set r 8 r1;
    set r 16 r2;
    set r 24 r3;
    set r 32 r4;
    set r 40 r5;
    set r 48 r6;
    set r 56 r7;
    set r 64 r8;
    set r 72 (r9 +^ c)

  (* A weak value is zero iff its limbs spell 0 or p. *)
  let is_zero a =
    let a0 = get a 0 and a1 = get a 8 and a2 = get a 16 and a3 = get a 24
    and a4 = get a 32 and a5 = get a 40 and a6 = get a 48
    and a7 = get a 56 and a8 = get a 64 and a9 = get a 72 in
    let z0 =
      bor a0 (bor a1 (bor a2 (bor a3 (bor a4 (bor a5 (bor a6 (bor a7 (bor a8 a9))))))))
    in
    let m = 0x3FFFFFFL in
    let z1 =
      bor (bxor a0 0x3FFFC2FL)
        (bor (bxor a1 0x3FFFFBFL)
           (bor (bxor a2 m)
              (bor (bxor a3 m)
                 (bor (bxor a4 m)
                    (bor (bxor a5 m)
                       (bor (bxor a6 m)
                          (bor (bxor a7 m) (bor (bxor a8 m) (bxor a9 0x3FFFFFL)))))))))
    in
    z0 = 0L || z1 = 0L

  (* The canonical limbs (< p) of a value of any magnitude, as ints: a
     weak copy, less p when it is p or more (a weak value is below 2p). *)
  let canonical a =
    let w = Bytes.copy a in
    normalize_weak w;
    let l = Array.make nl 0 in
    for j = 0 to nl - 1 do
      l.(j) <- Int64.to_int (get w (8 * j))
    done;
    let i = ref (nl - 1) in
    while !i >= 0 && l.(!i) = p_limbs.(!i) do
      decr i
    done;
    if !i < 0 || l.(!i) > p_limbs.(!i) then begin
      let borrow = ref 0 in
      for j = 0 to nl - 1 do
        let s = l.(j) - p_limbs.(j) - !borrow in
        borrow := if s < 0 then 1 else 0;
        l.(j) <- s land mask
      done
    end;
    l


  (* Conversions to/from the 16-bit-limb Uint256 representation.  Only
     used at kernel boundaries (scalars, encodings, the public fe API);
     the hot paths stay in 26-bit limbs throughout. *)
  let of_u256 x =
    let l = Uint256.limbs x in
    let r = create () in
    for j = 0 to nl - 1 do
      let b = 26 * j in
      let i = b lsr 4 and sh = b land 15 in
      let v = ref (l.(i) lsr sh) in
      if i + 1 < 16 then v := !v lor (l.(i + 1) lsl (16 - sh));
      if i + 2 < 16 && sh > 6 then v := !v lor (l.(i + 2) lsl (32 - sh));
      set r (8 * j) (Int64.of_int (!v land mask))
    done;
    r

  let to_u256 a =
    let c = canonical a in
    let l = Array.make 16 0 in
    for j = 0 to nl - 1 do
      let b = 26 * j in
      let i = b lsr 4 and sh = b land 15 in
      let v = c.(j) lsl sh in
      l.(i) <- (l.(i) lor v) land 0xFFFF;
      if i + 1 < 16 then l.(i + 1) <- (l.(i + 1) lor (v lsr 16)) land 0xFFFF;
      if i + 2 < 16 then l.(i + 2) <- (l.(i + 2) lor (v lsr 32)) land 0xFFFF
    done;
    Uint256.of_limbs l

  (* Comba multiplication with the reduction fused in: the ten limbs of
     each input are lifted into unboxed locals, the nineteen product
     columns are accumulated with a running carry, the high half is
     folded straight down at 2^260 and the remainder once more at 2^256,
     so the result is weak.  Generated mechanically; checked against the
     reference field of the test suites. *)
  let mul_into r a b =
    let a0 = get a 0 in
    let a1 = get a 8 in
    let a2 = get a 16 in
    let a3 = get a 24 in
    let a4 = get a 32 in
    let a5 = get a 40 in
    let a6 = get a 48 in
    let a7 = get a 56 in
    let a8 = get a 64 in
    let a9 = get a 72 in
    let b0 = get b 0 in
    let b1 = get b 8 in
    let b2 = get b 16 in
    let b3 = get b 24 in
    let b4 = get b 32 in
    let b5 = get b 40 in
    let b6 = get b 48 in
    let b7 = get b 56 in
    let b8 = get b 64 in
    let b9 = get b 72 in
    let s = (a0 *^ b0) in
    let t0 = lo s in
    let c = hi s in
    let s = c +^ (a0 *^ b1) +^ (a1 *^ b0) in
    let t1 = lo s in
    let c = hi s in
    let s = c +^ (a0 *^ b2) +^ (a1 *^ b1) +^ (a2 *^ b0) in
    let t2 = lo s in
    let c = hi s in
    let s = c +^ (a0 *^ b3) +^ (a1 *^ b2) +^ (a2 *^ b1) +^ (a3 *^ b0) in
    let t3 = lo s in
    let c = hi s in
    let s = c +^ (a0 *^ b4) +^ (a1 *^ b3) +^ (a2 *^ b2) +^ (a3 *^ b1) +^ (a4 *^ b0) in
    let t4 = lo s in
    let c = hi s in
    let s = c +^ (a0 *^ b5) +^ (a1 *^ b4) +^ (a2 *^ b3) +^ (a3 *^ b2) +^ (a4 *^ b1) +^ (a5 *^ b0) in
    let t5 = lo s in
    let c = hi s in
    let s = c +^ (a0 *^ b6) +^ (a1 *^ b5) +^ (a2 *^ b4) +^ (a3 *^ b3) +^ (a4 *^ b2) +^ (a5 *^ b1) +^ (a6 *^ b0) in
    let t6 = lo s in
    let c = hi s in
    let s = c +^ (a0 *^ b7) +^ (a1 *^ b6) +^ (a2 *^ b5) +^ (a3 *^ b4) +^ (a4 *^ b3) +^ (a5 *^ b2) +^ (a6 *^ b1) +^ (a7 *^ b0) in
    let t7 = lo s in
    let c = hi s in
    let s = c +^ (a0 *^ b8) +^ (a1 *^ b7) +^ (a2 *^ b6) +^ (a3 *^ b5) +^ (a4 *^ b4) +^ (a5 *^ b3) +^ (a6 *^ b2) +^ (a7 *^ b1) +^ (a8 *^ b0) in
    let t8 = lo s in
    let c = hi s in
    let s = c +^ (a0 *^ b9) +^ (a1 *^ b8) +^ (a2 *^ b7) +^ (a3 *^ b6) +^ (a4 *^ b5) +^ (a5 *^ b4) +^ (a6 *^ b3) +^ (a7 *^ b2) +^ (a8 *^ b1) +^ (a9 *^ b0) in
    let t9 = lo s in
    let c = hi s in
    let s = c +^ (a1 *^ b9) +^ (a2 *^ b8) +^ (a3 *^ b7) +^ (a4 *^ b6) +^ (a5 *^ b5) +^ (a6 *^ b4) +^ (a7 *^ b3) +^ (a8 *^ b2) +^ (a9 *^ b1) in
    let t10 = lo s in
    let c = hi s in
    let s = c +^ (a2 *^ b9) +^ (a3 *^ b8) +^ (a4 *^ b7) +^ (a5 *^ b6) +^ (a6 *^ b5) +^ (a7 *^ b4) +^ (a8 *^ b3) +^ (a9 *^ b2) in
    let t11 = lo s in
    let c = hi s in
    let s = c +^ (a3 *^ b9) +^ (a4 *^ b8) +^ (a5 *^ b7) +^ (a6 *^ b6) +^ (a7 *^ b5) +^ (a8 *^ b4) +^ (a9 *^ b3) in
    let t12 = lo s in
    let c = hi s in
    let s = c +^ (a4 *^ b9) +^ (a5 *^ b8) +^ (a6 *^ b7) +^ (a7 *^ b6) +^ (a8 *^ b5) +^ (a9 *^ b4) in
    let t13 = lo s in
    let c = hi s in
    let s = c +^ (a5 *^ b9) +^ (a6 *^ b8) +^ (a7 *^ b7) +^ (a8 *^ b6) +^ (a9 *^ b5) in
    let t14 = lo s in
    let c = hi s in
    let s = c +^ (a6 *^ b9) +^ (a7 *^ b8) +^ (a8 *^ b7) +^ (a9 *^ b6) in
    let t15 = lo s in
    let c = hi s in
    let s = c +^ (a7 *^ b9) +^ (a8 *^ b8) +^ (a9 *^ b7) in
    let t16 = lo s in
    let c = hi s in
    let s = c +^ (a8 *^ b9) +^ (a9 *^ b8) in
    let t17 = lo s in
    let c = hi s in
    let s = c +^ (a9 *^ b9) in
    let t18 = lo s in
    let t19 = hi s in
    (* fold limbs 10..19 down: 2^260 = 2^36 + 15632 (mod p) *)
    let s = t0 +^ (t10 *^ 15632L) in
    let r0 = lo s in
    let c = hi s in
    let s = c +^ t1 +^ (t11 *^ 15632L) +^ shl t10 10 in
    let r1 = lo s in
    let c = hi s in
    let s = c +^ t2 +^ (t12 *^ 15632L) +^ shl t11 10 in
    let r2 = lo s in
    let c = hi s in
    let s = c +^ t3 +^ (t13 *^ 15632L) +^ shl t12 10 in
    let r3 = lo s in
    let c = hi s in
    let s = c +^ t4 +^ (t14 *^ 15632L) +^ shl t13 10 in
    let r4 = lo s in
    let c = hi s in
    let s = c +^ t5 +^ (t15 *^ 15632L) +^ shl t14 10 in
    let r5 = lo s in
    let c = hi s in
    let s = c +^ t6 +^ (t16 *^ 15632L) +^ shl t15 10 in
    let r6 = lo s in
    let c = hi s in
    let s = c +^ t7 +^ (t17 *^ 15632L) +^ shl t16 10 in
    let r7 = lo s in
    let c = hi s in
    let s = c +^ t8 +^ (t18 *^ 15632L) +^ shl t17 10 in
    let r8 = lo s in
    let c = hi s in
    let s = c +^ t9 +^ (t19 *^ 15632L) +^ shl t18 10 in
    let r9 = lo s in
    let c = hi s in
    (* what is left at 2^256 (the top of r9, and 2^4·(t19·2^10 + c)
       from 2^260) folds once more: 2^256 = 2^32 + 977 (mod p) *)
    let h = shl (shl t19 10 +^ c) 4 +^ shr r9 22 in
    let r9 = band r9 0x3FFFFFL in
    let s = r0 +^ (h *^ 977L) in
    let r0 = lo s in
    let c = hi s in
    let s = c +^ r1 +^ shl h 6 in
    let r1 = lo s in
    let c = hi s in
    let s = c +^ r2 in
    let r2 = lo s in
    let c = hi s in
    let s = c +^ r3 in
    let r3 = lo s in
    let c = hi s in
    let s = c +^ r4 in
    let r4 = lo s in
    let c = hi s in
    let s = c +^ r5 in
    let r5 = lo s in
    let c = hi s in
    let s = c +^ r6 in
    let r6 = lo s in
    let c = hi s in
    let s = c +^ r7 in
    let r7 = lo s in
    let c = hi s in
    let s = c +^ r8 in
    let r8 = lo s in
    let c = hi s in
    let r9 = r9 +^ c in
    set r 0 r0;
    set r 8 r1;
    set r 16 r2;
    set r 24 r3;
    set r 32 r4;
    set r 40 r5;
    set r 48 r6;
    set r 56 r7;
    set r 64 r8;
    set r 72 r9

  let sqr_into r a =
    let a0 = get a 0 in
    let a1 = get a 8 in
    let a2 = get a 16 in
    let a3 = get a 24 in
    let a4 = get a 32 in
    let a5 = get a 40 in
    let a6 = get a 48 in
    let a7 = get a 56 in
    let a8 = get a 64 in
    let a9 = get a 72 in
    let s = (a0 *^ a0) in
    let t0 = lo s in
    let c = hi s in
    let s = c +^ (2L *^ (a0 *^ a1)) in
    let t1 = lo s in
    let c = hi s in
    let s = c +^ (2L *^ (a0 *^ a2)) +^ (a1 *^ a1) in
    let t2 = lo s in
    let c = hi s in
    let s = c +^ (2L *^ ((a0 *^ a3) +^ (a1 *^ a2))) in
    let t3 = lo s in
    let c = hi s in
    let s = c +^ (2L *^ ((a0 *^ a4) +^ (a1 *^ a3))) +^ (a2 *^ a2) in
    let t4 = lo s in
    let c = hi s in
    let s = c +^ (2L *^ ((a0 *^ a5) +^ (a1 *^ a4) +^ (a2 *^ a3))) in
    let t5 = lo s in
    let c = hi s in
    let s = c +^ (2L *^ ((a0 *^ a6) +^ (a1 *^ a5) +^ (a2 *^ a4))) +^ (a3 *^ a3) in
    let t6 = lo s in
    let c = hi s in
    let s = c +^ (2L *^ ((a0 *^ a7) +^ (a1 *^ a6) +^ (a2 *^ a5) +^ (a3 *^ a4))) in
    let t7 = lo s in
    let c = hi s in
    let s = c +^ (2L *^ ((a0 *^ a8) +^ (a1 *^ a7) +^ (a2 *^ a6) +^ (a3 *^ a5))) +^ (a4 *^ a4) in
    let t8 = lo s in
    let c = hi s in
    let s = c +^ (2L *^ ((a0 *^ a9) +^ (a1 *^ a8) +^ (a2 *^ a7) +^ (a3 *^ a6) +^ (a4 *^ a5))) in
    let t9 = lo s in
    let c = hi s in
    let s = c +^ (2L *^ ((a1 *^ a9) +^ (a2 *^ a8) +^ (a3 *^ a7) +^ (a4 *^ a6))) +^ (a5 *^ a5) in
    let t10 = lo s in
    let c = hi s in
    let s = c +^ (2L *^ ((a2 *^ a9) +^ (a3 *^ a8) +^ (a4 *^ a7) +^ (a5 *^ a6))) in
    let t11 = lo s in
    let c = hi s in
    let s = c +^ (2L *^ ((a3 *^ a9) +^ (a4 *^ a8) +^ (a5 *^ a7))) +^ (a6 *^ a6) in
    let t12 = lo s in
    let c = hi s in
    let s = c +^ (2L *^ ((a4 *^ a9) +^ (a5 *^ a8) +^ (a6 *^ a7))) in
    let t13 = lo s in
    let c = hi s in
    let s = c +^ (2L *^ ((a5 *^ a9) +^ (a6 *^ a8))) +^ (a7 *^ a7) in
    let t14 = lo s in
    let c = hi s in
    let s = c +^ (2L *^ ((a6 *^ a9) +^ (a7 *^ a8))) in
    let t15 = lo s in
    let c = hi s in
    let s = c +^ (2L *^ (a7 *^ a9)) +^ (a8 *^ a8) in
    let t16 = lo s in
    let c = hi s in
    let s = c +^ (2L *^ (a8 *^ a9)) in
    let t17 = lo s in
    let c = hi s in
    let s = c +^ (a9 *^ a9) in
    let t18 = lo s in
    let t19 = hi s in
    (* fold limbs 10..19 down: 2^260 = 2^36 + 15632 (mod p) *)
    let s = t0 +^ (t10 *^ 15632L) in
    let r0 = lo s in
    let c = hi s in
    let s = c +^ t1 +^ (t11 *^ 15632L) +^ shl t10 10 in
    let r1 = lo s in
    let c = hi s in
    let s = c +^ t2 +^ (t12 *^ 15632L) +^ shl t11 10 in
    let r2 = lo s in
    let c = hi s in
    let s = c +^ t3 +^ (t13 *^ 15632L) +^ shl t12 10 in
    let r3 = lo s in
    let c = hi s in
    let s = c +^ t4 +^ (t14 *^ 15632L) +^ shl t13 10 in
    let r4 = lo s in
    let c = hi s in
    let s = c +^ t5 +^ (t15 *^ 15632L) +^ shl t14 10 in
    let r5 = lo s in
    let c = hi s in
    let s = c +^ t6 +^ (t16 *^ 15632L) +^ shl t15 10 in
    let r6 = lo s in
    let c = hi s in
    let s = c +^ t7 +^ (t17 *^ 15632L) +^ shl t16 10 in
    let r7 = lo s in
    let c = hi s in
    let s = c +^ t8 +^ (t18 *^ 15632L) +^ shl t17 10 in
    let r8 = lo s in
    let c = hi s in
    let s = c +^ t9 +^ (t19 *^ 15632L) +^ shl t18 10 in
    let r9 = lo s in
    let c = hi s in
    (* what is left at 2^256 (the top of r9, and 2^4·(t19·2^10 + c)
       from 2^260) folds once more: 2^256 = 2^32 + 977 (mod p) *)
    let h = shl (shl t19 10 +^ c) 4 +^ shr r9 22 in
    let r9 = band r9 0x3FFFFFL in
    let s = r0 +^ (h *^ 977L) in
    let r0 = lo s in
    let c = hi s in
    let s = c +^ r1 +^ shl h 6 in
    let r1 = lo s in
    let c = hi s in
    let s = c +^ r2 in
    let r2 = lo s in
    let c = hi s in
    let s = c +^ r3 in
    let r3 = lo s in
    let c = hi s in
    let s = c +^ r4 in
    let r4 = lo s in
    let c = hi s in
    let s = c +^ r5 in
    let r5 = lo s in
    let c = hi s in
    let s = c +^ r6 in
    let r6 = lo s in
    let c = hi s in
    let s = c +^ r7 in
    let r7 = lo s in
    let c = hi s in
    let s = c +^ r8 in
    let r8 = lo s in
    let c = hi s in
    let r9 = r9 +^ c in
    set r 0 r0;
    set r 8 r1;
    set r 16 r2;
    set r 24 r3;
    set r 32 r4;
    set r 40 r5;
    set r 48 r6;
    set r 56 r7;
    set r 64 r8;
    set r 72 r9

  let mul a b =
    let r = create () in
    mul_into r a b;
    r

  let sqr a =
    let r = create () in
    sqr_into r a;
    r

  (* --- lazy (unreduced) arithmetic for the point formulas --------------

     A value of magnitude m has limbs 0..8 below m·2^26 and limb 9 at
     most m·2^22, and is congruent to the represented element without
     being reduced.  The caller tracks magnitudes: weak values (every
     [mul]/[sqr]/[normalize_weak] output) have m = 1, [add_nc_into] sums
     magnitudes, [sub_nc_into r m a b] adds 2m to a's and
     [mul_int_nc_into r k a] multiplies a's by k.  Values may flow into
     [mul]/[sqr] only while m <= 8 (comba columns stay below 2^62) and
     must pass through [normalize_weak] before being stored in a point
     or zero-tested.  This is what lets the Jacobian ladders skip most
     carry passes of a group operation. *)

  let add_nc_into r a b =
    for j = 0 to nl - 1 do
      let o = 8 * j in
      set r o (get a o +^ get b o)
    done

  (* a - b in one pass, where b has magnitude <= m: adding 2m·p keeps
     every limb non-negative; result mag(a)+2m *)
  let sub_nc_into r m a b =
    let m2 = Int64.of_int (2 * m) in
    for j = 0 to nl - 1 do
      let o = 8 * j in
      set r o (get a o +^ (m2 *^ get p_fe o) -^ get b o)
    done

  (* k·a for a small constant k; result mag k·mag(a) *)
  let mul_int_nc_into r k a =
    let k = Int64.of_int k in
    for j = 0 to nl - 1 do
      let o = 8 * j in
      set r o (k *^ get a o)
    done

  (* -a for a weak a: 2p - a (magnitude 2), carried down to weak form *)
  let zero_fe = create ()

  let neg_into r a =
    sub_nc_into r 1 zero_fe a;
    normalize_weak r

  let neg a =
    let r = create () in
    neg_into r a;
    r

  let add a b =
    let r = create () in
    add_nc_into r a b;
    normalize_weak r;
    r

  let sub a b =
    let r = create () in
    sub_nc_into r 1 a b;
    normalize_weak r;
    r

  (* r = a^(2^k) *)
  let sqr_n r a k =
    sqr_into r a;
    for _ = 2 to k do
      sqr_into r r
    done

  (* a^(p-2) by libsecp256k1's addition chain, 255 squarings and 15
     multiplications: about a third of the time of [Uint256.inv_mod] *)
  let inv a =
    if is_zero a then invalid_arg "Secp256k1.fe_inv: zero";
    let x2 = create () and x3 = create () and x6 = create ()
    and x11 = create () and x22 = create () and x44 = create ()
    and t = create () in
    sqr_into x2 a;
    mul_into x2 x2 a;
    sqr_into x3 x2;
    mul_into x3 x3 a;
    sqr_n x6 x3 3;
    mul_into x6 x6 x3;
    sqr_n t x6 3;
    mul_into t t x3;
    sqr_n x11 t 2;
    mul_into x11 x11 x2;
    sqr_n x22 x11 11;
    mul_into x22 x22 x11;
    sqr_n x44 x22 22;
    mul_into x44 x44 x22;
    (* x88, x176, x220, x223: runs of that many one bits *)
    sqr_n t x44 44;
    mul_into t t x44;
    sqr_n x6 t 88;
    mul_into x6 x6 t;
    sqr_n x6 x6 44;
    mul_into x6 x6 x44;
    sqr_n x6 x6 3;
    mul_into x6 x6 x3;
    sqr_n x6 x6 23;
    mul_into x6 x6 x22;
    sqr_n x6 x6 5;
    mul_into x6 x6 a;
    sqr_n x6 x6 3;
    mul_into x6 x6 x2;
    sqr_n x6 x6 2;
    mul_into x6 x6 a;
    x6

  let inv_batch xs = batch_invert ~one:(one ()) ~mul ~inv xs

  (* a ≡ b: their difference is zero *)
  let equal a b =
    let d = create () in
    sub_nc_into d 1 a b;
    normalize_weak d;
    is_zero d

  let one_fe = one ()
  let is_one a = equal a one_fe
end

(* --- scalar arithmetic modulo the group order n ------------------------- *)

module Scalar = struct
  let n = n

  (* 2^256 - n: 129 bits, nine 16-bit limbs *)
  let t_n = Uint256.limbs (fst (Uint256.sub Uint256.zero n))
  let t_n_len = 9

  let reduce x = if Uint256.compare x n >= 0 then fst (Uint256.sub x n) else x

  (* Fold-based reduction of a wide (≤ 32-limb) value: repeatedly rewrite
     hi·2^256 + lo as lo + hi·(2^256 - n) until the value fits 16 limbs,
     then subtract n at most once (2^256 < 2n). *)
  let reduce_wide w =
    let significant a =
      let rec go i =
        if i < 0 then 0 else if a.(i) <> 0 then i + 1 else go (i - 1)
      in
      go (Array.length a - 1)
    in
    let current = ref w in
    let len = ref (significant w) in
    while !len > 16 do
      let a = !current in
      let hi_len = !len - 16 in
      let acc = Array.make (max 16 (hi_len + t_n_len) + 1) 0 in
      Array.blit a 0 acc 0 16;
      for i = 0 to hi_len - 1 do
        let h = a.(16 + i) in
        if h <> 0 then begin
          let carry = ref 0 in
          for j = 0 to t_n_len - 1 do
            let s = acc.(i + j) + (h * t_n.(j)) + !carry in
            acc.(i + j) <- s land 0xFFFF;
            carry := s lsr 16
          done;
          let k = ref (i + t_n_len) in
          while !carry <> 0 do
            let s = acc.(!k) + !carry in
            acc.(!k) <- s land 0xFFFF;
            carry := s lsr 16;
            incr k
          done
        end
      done;
      current := acc;
      len := significant acc
    done;
    let r = Array.make 16 0 in
    Array.blit !current 0 r 0 (min 16 (Array.length !current));
    reduce (Uint256.of_limbs r)

  let mul a b = reduce_wide (Uint256.mul_wide a b)
  let add a b = Uint256.add_mod a b n
  let sub a b = Uint256.sub_mod a b n
  let inv x = Uint256.inv_mod x n
  let inv_batch xs = batch_invert ~one:Uint256.one ~mul ~inv xs

  (* --- GLV scalar decomposition ---------------------------------------
     k = k1 + k2*lambda (mod n) with |k1|, |k2| <= 2^128: the standard
     lattice basis for secp256k1 with c_i = round(k*g_i / 2^384), where
     g1 = round(2^384*b2/n) and g2 = round(2^384*(-b1)/n). *)

  let g1 =
    Uint256.of_hex
      "3086d221a7d46bcde86c90e49284eb153daa8a1471e8ca7fe893209a45dbb031"

  let g2 =
    Uint256.of_hex
      "e4437ed6010e88286f547fa90abfe4c4221208ac9df506c61571b4ae8ac47f71"

  let minus_b1 = Uint256.of_hex "e4437ed6010e88286f547fa90abfe4c3"

  let minus_b2 =
    Uint256.of_hex
      "fffffffffffffffffffffffffffffffe8a280ac50774346dd765cda83db1562c"

  let half_n =
    Uint256.of_hex
      "7fffffffffffffffffffffffffffffff5d576e7357a4501ddfe92f46681b20a0"

  (* round(a*b / 2^384): limbs 24..31 of the wide product, plus the
     rounding bit at position 383 *)
  let mul_shift_384 a b =
    let w = Uint256.mul_wide a b in
    let r = Array.make 16 0 in
    Array.blit w 24 r 0 8;
    let v = Uint256.of_limbs r in
    if w.(23) land 0x8000 <> 0 then fst (Uint256.add v Uint256.one) else v

  (* [split k] (k < n) returns ((neg1, k1), (neg2, k2)) with
     k = (-1)^neg1 * k1 + (-1)^neg2 * k2 * lambda (mod n) and both
     magnitudes at most 2^128. *)
  let split k =
    let c1 = mul_shift_384 k g1 in
    let c2 = mul_shift_384 k g2 in
    let k2 = add (mul c1 minus_b1) (mul c2 minus_b2) in
    let k1 = sub k (mul k2 lambda) in
    let norm v =
      if Uint256.compare v half_n > 0 then (true, fst (Uint256.sub n v))
      else (false, v)
    in
    (norm k1, norm k2)
end

(* --- Jacobian points on the fast field --------------------------------- *)

type point = { x : Fe.t; y : Fe.t; z : Fe.t }

let infinity = { x = Fe.one (); y = Fe.one (); z = Fe.create () }
let is_infinity pt = Fe.is_zero pt.z
let of_affine x y = { x = Fe.of_u256 x; y = Fe.of_u256 y; z = Fe.one () }
let generator = of_affine gx gy
let gx_fe = Fe.of_u256 gx
let gy_fe = Fe.of_u256 gy
let seven = Fe.of_int 7

let is_on_curve x y =
  if Uint256.compare x p >= 0 || Uint256.compare y p >= 0 then false
  else begin
    let xf = Fe.of_u256 x and yf = Fe.of_u256 y in
    let lhs = Fe.sqr yf in
    let rhs = Fe.add (Fe.mul (Fe.sqr xf) xf) seven in
    Fe.equal lhs rhs
  end

let to_affine pt =
  if is_infinity pt then None
  else begin
    let zinv = Fe.inv pt.z in
    let zinv2 = Fe.sqr zinv in
    let x = Fe.mul pt.x zinv2 in
    let y = Fe.mul pt.y (Fe.mul zinv2 zinv) in
    Some (Fe.to_u256 x, Fe.to_u256 y)
  end

let negate pt = if is_infinity pt then pt else { pt with y = Fe.neg pt.y }

(* --- the group law over a mutable accumulator ---------------------------

   The ladders below run dozens of group operations per call.  Each call
   keeps its running point in one [acc]: three coordinate elements
   updated in place and the temporaries of one doubling or addition,
   about 110 words allocated once per call.  An
   [acc] never outlives the call that made it and is never shared.  A
   module-level buffer would be shared by every domain (pooled π_c
   verifies and read-path π_s signs run at once), and a [Domain.DLS]
   slot by every systhread of one domain, which the runtime may switch
   between mid-ladder.  [freeze] hands the coordinates over as an
   immutable [point], after which the [acc] is dropped.  An acc whose z
   is zero is the point at infinity, whatever its x and y. *)

type acc = {
  ax : Fe.t;
  ay : Fe.t;
  az : Fe.t;
  t0 : Fe.t;
  t1 : Fe.t;
  t2 : Fe.t;
  t3 : Fe.t;
  t4 : Fe.t; (* with t5: u1 and s1 of a Jacobian operand, or the *)
  t5 : Fe.t; (* affine table entry [add_affine] adds *)
}

let new_acc () =
  let f = Fe.create in
  { ax = f (); ay = f (); az = f (); t0 = f (); t1 = f (); t2 = f ();
    t3 = f (); t4 = f (); t5 = f () }

let acc_of pt =
  let s = new_acc () in
  Bytes.blit pt.x 0 s.ax 0 Fe.size;
  Bytes.blit pt.y 0 s.ay 0 Fe.size;
  Bytes.blit pt.z 0 s.az 0 Fe.size;
  s

let freeze s =
  if Fe.is_zero s.az then infinity else { x = s.ax; y = s.ay; z = s.az }

(* the accumulator's current point, copied out so that [s] runs on *)
let snapshot s =
  if Fe.is_zero s.az then infinity
  else { x = Bytes.copy s.ax; y = Bytes.copy s.ay; z = Bytes.copy s.az }

let set_infinity s = Bytes.fill s.az 0 Fe.size '\000'

(* dbl-2009-l, a = 0: 2M + 5S, in place.  Formula-internal sums use the
   lazy magnitude-tracked ops (magnitudes in comments); stored
   coordinates are always weak. *)
let double_into s =
  if Fe.is_zero s.az || Fe.is_zero s.ay then set_infinity s
  else begin
    let a = s.t0 and b = s.t1 and c = s.t2 and d = s.t3 in
    Fe.sqr_into a s.ax;
    Fe.sqr_into b s.ay;
    Fe.sqr_into c b;
    (* z3 = 2·y·z, while y is still the input's *)
    Fe.mul_into s.az s.ay s.az;
    Fe.mul_int_nc_into s.az 2 s.az;
    Fe.normalize_weak s.az;
    (* d = 2((x + b)² - a - c): arg mag 2; 1 + 2 + 2 doubled = mag 10 *)
    Fe.add_nc_into d s.ax b;
    Fe.sqr_into d d;
    Fe.sub_nc_into d 1 d a;
    Fe.sub_nc_into d 1 d c;
    Fe.mul_int_nc_into d 2 d;
    Fe.normalize_weak d;
    (* e = 3a (mag 3), kept in a; f = e² *)
    Fe.mul_int_nc_into a 3 a;
    Fe.sqr_into b a;
    (* x3 = f - 2d *)
    Fe.mul_int_nc_into s.ax 2 d;
    Fe.sub_nc_into s.ax 2 b s.ax;
    Fe.normalize_weak s.ax;
    (* y3 = e(d - x3) - 8c: mag 3 into the product, then 1 + 16 *)
    Fe.sub_nc_into d 1 d s.ax;
    Fe.mul_into d a d;
    Fe.mul_int_nc_into c 8 c;
    Fe.sub_nc_into s.ay 8 d c;
    Fe.normalize_weak s.ay
  end

(* s += (x2, y2, z2) in place, where [z2 = None] means an affine operand
   (z = 1): general Jacobian addition is 11M + 5S, mixed addition 7M +
   4S.  The operand's elements must not be ones this function writes:
   the accumulator's coordinates, t0..t3, and t4 and t5 when the operand
   is Jacobian (an affine operand may sit in t4 and t5). *)
let add_into s x2 y2 z2 =
  if Fe.is_zero s.az then begin
    Bytes.blit x2 0 s.ax 0 Fe.size;
    Bytes.blit y2 0 s.ay 0 Fe.size;
    match z2 with
    | Some z2 -> Bytes.blit z2 0 s.az 0 Fe.size
    | None ->
        Bytes.fill s.az 0 Fe.size '\000';
        Bytes.set s.az 0 '\001'
  end
  else if match z2 with Some z2 -> Fe.is_zero z2 | None -> false then ()
  else begin
    (* u1 = x1·z2², s1 = y1·z2³: just x1 and y1 for an affine operand *)
    let u1, s1 =
      match z2 with
      | None -> (s.ax, s.ay)
      | Some z2 ->
          Fe.sqr_into s.t4 z2;
          Fe.mul_into s.t5 s.t4 z2;
          Fe.mul_into s.t4 s.ax s.t4;
          Fe.mul_into s.t5 s.ay s.t5;
          (s.t4, s.t5)
    in
    let r = s.t0 and h = s.t1 and h2 = s.t2 and h3 = s.t3 in
    (* h = x2·z1² - u1, r = y2·z1³ - s1 *)
    Fe.sqr_into r s.az;
    Fe.mul_into h x2 r;
    Fe.mul_into r r s.az;
    Fe.mul_into r y2 r;
    Fe.sub_nc_into h 1 h u1;
    Fe.normalize_weak h;
    Fe.sub_nc_into r 1 r s1;
    Fe.normalize_weak r;
    if Fe.is_zero h then if Fe.is_zero r then double_into s else set_infinity s
    else begin
      (* z3 = z1·h·z2 *)
      Fe.mul_into s.az s.az h;
      (match z2 with Some z2 -> Fe.mul_into s.az s.az z2 | None -> ());
      Fe.sqr_into h2 h;
      Fe.mul_into h3 h h2;
      (* u1h2 into h2 and s1h3 into h, before x1 and y1 are overwritten *)
      Fe.mul_into h2 u1 h2;
      Fe.mul_into h s1 h3;
      (* x3 = r² - h3 - 2·u1h2: mag 1 + 2 + 4 *)
      Fe.sqr_into s.ax r;
      Fe.sub_nc_into s.ax 1 s.ax h3;
      Fe.mul_int_nc_into h3 2 h2;
      Fe.sub_nc_into s.ax 2 s.ax h3;
      Fe.normalize_weak s.ax;
      (* y3 = r(u1h2 - x3) - s1h3: arg mag 3 *)
      Fe.sub_nc_into h2 1 h2 s.ax;
      Fe.mul_into h2 r h2;
      Fe.sub_nc_into s.ay 1 h2 h;
      Fe.normalize_weak s.ay
    end
  end

(* s += ±(the affine point whose x is at byte [xoff] of [xs] and whose y
   is at byte [yoff] of [ys]) *)
let add_affine s xs xoff ys yoff negative =
  Bytes.blit xs xoff s.t4 0 Fe.size;
  Bytes.blit ys yoff s.t5 0 Fe.size;
  if negative then Fe.neg_into s.t5 s.t5;
  add_into s s.t4 s.t5 None

let double pt =
  let s = acc_of pt in
  double_into s;
  freeze s

let add p1 p2 =
  let s = acc_of p1 in
  add_into s p2.x p2.y (Some p2.z);
  freeze s

(* projective cross-comparison: x1·z2² = x2·z1² ∧ y1·z2³ = y2·z1³ *)
let equal p1 p2 =
  match (is_infinity p1, is_infinity p2) with
  | true, true -> true
  | true, false | false, true -> false
  | false, false ->
      let z1z1 = Fe.sqr p1.z and z2z2 = Fe.sqr p2.z in
      Fe.equal (Fe.mul p1.x z2z2) (Fe.mul p2.x z1z1)
      && Fe.equal
           (Fe.mul p1.y (Fe.mul z2z2 p2.z))
           (Fe.mul p2.y (Fe.mul z1z1 p1.z))

(* --- flat affine tables ---------------------------------------------------

   A table holds affine points back to back in one [Bytes]: entry i's x
   at byte 160·i and its y at byte 160·i + 80, each a weak field
   element, 20 words a point. *)

let entry = 2 * Fe.size

(* Write the affine forms of non-infinity Jacobian points into [xy] from
   entry [first] on, with one shared inversion. *)
let store_affine pts xy first =
  let zinvs = Fe.inv_batch (Array.map (fun pt -> pt.z) pts) in
  Array.iteri
    (fun i pt ->
      let zi2 = Fe.sqr zinvs.(i) in
      let o = (first + i) * entry in
      Bytes.blit (Fe.mul pt.x zi2) 0 xy o Fe.size;
      Bytes.blit (Fe.mul pt.y (Fe.mul zi2 zinvs.(i))) 0 xy (o + Fe.size)
        Fe.size)
    pts

(* P, 3P, ..., (2·count - 1)P, Jacobian, on one accumulator *)
let odd_multiples pt count =
  let p2 = double pt in
  let s = acc_of pt in
  Array.init count (fun i ->
      if i > 0 then add_into s p2.x p2.y (Some p2.z);
      snapshot s)

(* --- wNAF tables and the verify ladder ----------------------------------

   A GLV half k1 (|k1| < 2^129) runs as two streams of one wNAF digit
   string: digits 0..63 against the odd multiples of P, digits 64 and up
   against those of 2^64·P, both on the same doubling at step i (digit
   i, resp. digit i + 64).  A verify's four halves thus share a chain of
   ~64 doublings instead of ~128, for the same ~66 additions. *)

let split_bits = 64

(* Odd multiples for width-[w] wNAF digits: entries i < count are
   (2i+1)·P, entries count + i are (2i+1)·2^64·P, with count =
   2^(w-2), in [xy]; [lx] holds β·x of every entry, 10 words a point,
   since (β·x, y) is the same multiple of λP (resp. λ·2^64·P). *)
type table = { w : int; count : int; xy : Bytes.t; lx : Bytes.t }

let beta_fe = Fe.of_u256 beta

let make_table w pt =
  let count = 1 lsl (w - 2) in
  let s = acc_of pt in
  for _ = 1 to split_bits do
    double_into s
  done;
  let jac =
    Array.append (odd_multiples pt count) (odd_multiples (freeze s) count)
  in
  let xy = Bytes.create (2 * count * entry) in
  store_affine jac xy 0;
  let lx = Bytes.create (2 * count * Fe.size) in
  let x = Fe.create () in
  for i = 0 to (2 * count) - 1 do
    Bytes.blit xy (i * entry) x 0 Fe.size;
    Fe.mul_into x beta_fe x;
    Bytes.blit x 0 lx (i * Fe.size) Fe.size
  done;
  { w; count; xy; lx }

(* Width for the tables of arbitrary points (8 odd multiples per
   stream) and for the fixed G table (256 per stream, built once at
   module initialization, single-threaded, so safe under domains). *)
let pt_window = 5
let g_window = 10

let precompute pt =
  if is_infinity pt then invalid_arg "Secp256k1.precompute: infinity";
  make_table pt_window pt

let g_table = make_table g_window generator

let table_affine tb =
  ( Fe.to_u256 (Bytes.sub tb.xy 0 Fe.size),
    Fe.to_u256 (Bytes.sub tb.xy Fe.size Fe.size) )

(* bits [pos, pos + w) of the 16-bit limbs [l], w <= 16 *)
let window l pos w =
  let i = pos lsr 4 and sh = pos land 15 in
  let v = if i < 16 then l.(i) lsr sh else 0 in
  let v = if i + 1 < 16 then v lor (l.(i + 1) lsl (16 - sh)) else v in
  v land ((1 lsl w) - 1)

(* Width-w non-adjacent form of v (< 2^256): digit i is zero or odd in
   (-2^(w-1), 2^(w-1)), with at most one nonzero digit in any w
   consecutive positions.  Each window of w bits is read straight from
   v's 16-bit limbs, with a carry standing in for the digit subtracted;
   the string has one position more than v has bits, which absorbs the
   last carry.  Digits are 16-bit little-endian in a [Bytes], a sixth of
   the words of an [int array]. *)

let wnaf v w =
  let l = Uint256.limbs v in
  let top = ref 15 in
  while !top >= 0 && l.(!top) = 0 do
    decr top
  done;
  let nbits = if !top < 0 then 0 else 16 * (!top + 1) in
  let digits = Bytes.make (2 * (nbits + 1)) '\000' in
  let carry = ref 0 and bit = ref 0 in
  while !bit <= nbits do
    if window l !bit 1 = !carry then incr bit
    else begin
      (* bit + carry is odd, so the word is odd and below 2^w *)
      let word = window l !bit w + !carry in
      carry := word lsr (w - 1);
      Bytes.set_int16_le digits (2 * !bit) (word - (!carry lsl w));
      bit := !bit + w
    end
  done;
  digits

(* s += ±(entry |d|/2 of one stream of [tb]): the λ stream reads its x
   from [lx] *)
let add_digit s tb lam base d negative =
  let i = base + (abs d lsr 1) in
  let y = (i * entry) + Fe.size in
  if lam then add_affine s tb.lx (i * Fe.size) tb.xy y negative
  else add_affine s tb.xy (i * entry) tb.xy y negative

(* Sum of k_i·P_i for [(k_i, table of P_i)] with every k_i < n: each
   scalar is GLV-split into two halves over P_i and λP_i, and each half's
   wNAF string into its two 64-digit streams; every stream shares one
   doubling chain (Shamir's trick).  A negated half flips its digit
   signs. *)
let ladder terms =
  let halves =
    Array.of_list
      (List.concat_map
         (fun (k, tb) ->
           let (n1, k1), (n2, k2) = Scalar.split k in
           [ (n1, wnaf k1 tb.w, tb, false); (n2, wnaf k2 tb.w, tb, true) ])
         terms)
  in
  let steps =
    Array.fold_left
      (fun m (_, d, _, _) ->
        let len = Bytes.length d / 2 in
        max m (max (min len split_bits) (len - split_bits)))
      0 halves
  in
  let s = new_acc () in
  for i = steps - 1 downto 0 do
    double_into s;
    for h = 0 to Array.length halves - 1 do
      let neg, d, tb, lam = halves.(h) in
      let len = Bytes.length d / 2 in
      if i < split_bits && i < len then begin
        let di = Bytes.get_int16_le d (2 * i) in
        if di <> 0 then add_digit s tb lam 0 di ((di < 0) <> neg)
      end;
      let j = i + split_bits in
      if j < len then begin
        let dj = Bytes.get_int16_le d (2 * j) in
        if dj <> 0 then add_digit s tb lam tb.count dj ((dj < 0) <> neg)
      end
    done
  done;
  freeze s

(* --- the signed-digit multi-comb for k·G ---------------------------------

   libsecp256k1's [ecmult_gen] layout: 256 scalar bits as 4 blocks × 8
   teeth × spacing 8, bit j + 8t + 64b being tooth t of block b at
   spacing position j.  With d = (k + 2^256 − 1)/2 mod n, every bit of d
   stands for a digit ±1 (set: +1, clear: −1) and the digits sum to
   2d − (2^256 − 1) ≡ k.  Block b's table holds, for each sign pattern
   of its teeth with tooth 7 positive, Σ_t ±2^(8t+64b)·G, indexed by the
   signs of teeth 0..6 (128 points); a pattern with tooth 7 negative is
   the negation of its complement.  k·G is then 8 rounds, one doubling
   between rounds, of one addition per block: 32 mixed additions and 7
   doublings for every k, and no digit is ever zero. *)

let comb_blocks = 4
let comb_teeth = 8
let comb_spacing = 8
let comb_points = 1 lsl (comb_teeth - 1)

(* (2^256 − 1) mod n *)
let comb_offset = Scalar.reduce (Uint256.of_hex (String.make 64 'f'))

(* Built at module initialization from 280 doublings and 4 × 134
   additions, one shared inversion per block. *)
let comb =
  let xy = Bytes.create (comb_blocks * comb_points * entry) in
  let s = acc_of generator in
  for b = 0 to comb_blocks - 1 do
    (* teeth.(t) = 2^(8t + 64b)·G *)
    let teeth =
      Array.init comb_teeth (fun t ->
          if b > 0 || t > 0 then
            for _ = 1 to comb_spacing do
              double_into s
            done;
          snapshot s)
    in
    let jac = Array.make comb_points teeth.(comb_teeth - 1) in
    for t = 0 to comb_teeth - 2 do
      jac.(0) <- add jac.(0) (negate teeth.(t))
    done;
    (* flipping tooth t from −1 to +1 adds 2·teeth.(t) *)
    let twice = Array.map double teeth in
    for m = 1 to comb_points - 1 do
      let rec low t = if m land (1 lsl t) <> 0 then t else low (t + 1) in
      jac.(m) <- add jac.(m land (m - 1)) twice.(low 0)
    done;
    store_affine jac xy (b * comb_points)
  done;
  xy

let scalar_mul_base k =
  (* d = t/2 for t = k + 2^256 − 1 mod n, plus n first when t is odd;
     [carry] is bit 256 of that sum *)
  let t = Scalar.add (Scalar.reduce k) comb_offset in
  let t, carry = if Uint256.is_odd t then Uint256.add t n else (t, false) in
  let l = Uint256.limbs t in
  let d = Array.make 16 0 in
  for i = 0 to 15 do
    let next = if i < 15 then l.(i + 1) else Bool.to_int carry in
    d.(i) <- (l.(i) lsr 1) lor ((next land 1) lsl 15)
  done;
  let s = new_acc () in
  for j = comb_spacing - 1 downto 0 do
    if j < comb_spacing - 1 then double_into s;
    for b = 0 to comb_blocks - 1 do
      let bits = ref 0 in
      for t = comb_teeth - 1 downto 0 do
        let i = j + (comb_spacing * (t + (comb_teeth * b))) in
        bits := (!bits lsl 1) lor ((d.(i lsr 4) lsr (i land 15)) land 1)
      done;
      let negative = !bits lsr (comb_teeth - 1) = 0 in
      let m = (if negative then lnot !bits else !bits) land (comb_points - 1) in
      let o = ((b * comb_points) + m) * entry in
      add_affine s comb o comb (o + Fe.size) negative
    done
  done;
  freeze s

let resident_words () =
  Obj.reachable_words (Obj.repr comb) + Obj.reachable_words (Obj.repr g_table)

let is_generator pt =
  Fe.is_one pt.z && Fe.equal pt.x gx_fe && Fe.equal pt.y gy_fe

let scalar_mul k pt =
  if is_generator pt then scalar_mul_base k
  else if is_infinity pt then infinity
  else ladder [ (Scalar.reduce k, precompute pt) ]

let double_scalar_mul_base a b tb =
  ladder [ (Scalar.reduce a, g_table); (Scalar.reduce b, tb) ]

(* Affine x-coordinates of many points with one shared inversion; None
   for the point at infinity. *)
let affine_x_batch pts =
  (* the point at infinity (z = 0) stands in as z = 1; its inverse is
     never read *)
  let zinvs =
    Fe.inv_batch
      (Array.map (fun pt -> if is_infinity pt then Fe.one () else pt.z) pts)
  in
  Array.mapi
    (fun i pt ->
      if is_infinity pt then None
      else Some (Fe.to_u256 (Fe.mul pt.x (Fe.sqr zinvs.(i)))))
    pts

(* ECDSA's final comparison without leaving Jacobian coordinates: does
   pt have an affine x-coordinate congruent to [r] mod n?  x = X/Z^2, so
   test X = c*Z^2 for c = r and (since x < p may exceed n) c = r + n.
   An r + n that wraps past 2^256 is no candidate: it would be read as
   r - (2^256 - n). *)
let has_x_mod_n pt r =
  if is_infinity pt then false
  else begin
    let z2 = Fe.sqr pt.z in
    let matches c = Fe.equal (Fe.mul (Fe.of_u256 c) z2) pt.x in
    matches r
    ||
    let rn, carry = Uint256.add r n in
    (not carry) && Uint256.compare rn p < 0 && matches rn
  end

(* --- public field helpers (Uint256 views over the fast kernel) ---------- *)

let fe_add a b = Fe.to_u256 (Fe.add (Fe.of_u256 a) (Fe.of_u256 b))
let fe_sub a b = Fe.to_u256 (Fe.sub (Fe.of_u256 a) (Fe.of_u256 b))
let fe_mul a b = Fe.to_u256 (Fe.mul (Fe.of_u256 a) (Fe.of_u256 b))
let fe_sqr a = Fe.to_u256 (Fe.sqr (Fe.of_u256 a))
let fe_inv a = Fe.to_u256 (Fe.inv (Fe.of_u256 a))

let fe_inv_batch xs =
  let any_zero = Array.exists Uint256.is_zero xs in
  if any_zero then invalid_arg "Secp256k1.fe_inv_batch: zero element";
  Array.map Fe.to_u256 (Fe.inv_batch (Array.map Fe.of_u256 xs))
