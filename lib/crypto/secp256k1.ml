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

  (* The canonical value (< p) of [a], of any magnitude, as 16-bit limbs
     in [l]: a weak copy in [w], less p when it is p or more (a weak
     value is below 2p), regrouped from 26-bit limbs.  Only used at
     kernel boundaries (scalars, encodings, the public fe API); the hot
     paths stay in 26-bit limbs throughout. *)
  let to_limbs_into l w a =
    Bytes.blit a 0 w 0 size;
    normalize_weak w;
    let i = ref (nl - 1) in
    while !i >= 0 && Int64.to_int (get w (8 * !i)) = p_limbs.(!i) do
      decr i
    done;
    if !i < 0 || Int64.to_int (get w (8 * !i)) > p_limbs.(!i) then begin
      let borrow = ref 0 in
      for j = 0 to nl - 1 do
        let s = Int64.to_int (get w (8 * j)) - p_limbs.(j) - !borrow in
        borrow := if s < 0 then 1 else 0;
        set w (8 * j) (Int64.of_int (s land mask))
      done
    end;
    Array.fill l 0 16 0;
    for j = 0 to nl - 1 do
      let b = 26 * j in
      let i = b lsr 4 and sh = b land 15 in
      let v = Int64.to_int (get w (8 * j)) lsl sh in
      l.(i) <- (l.(i) lor v) land 0xFFFF;
      if i + 1 < 16 then l.(i + 1) <- (l.(i + 1) lor (v lsr 16)) land 0xFFFF;
      if i + 2 < 16 then l.(i + 2) <- (l.(i + 2) lor (v lsr 32)) land 0xFFFF
    done

  (* r := the value of the 16-bit limbs [l] *)
  let of_limbs_into r l =
    for j = 0 to nl - 1 do
      let b = 26 * j in
      let i = b lsr 4 and sh = b land 15 in
      let v = ref (l.(i) lsr sh) in
      if i + 1 < 16 then v := !v lor (l.(i + 1) lsl (16 - sh));
      if i + 2 < 16 && sh > 6 then v := !v lor (l.(i + 2) lsl (32 - sh));
      set r (8 * j) (Int64.of_int (!v land mask))
    done

  let of_u256 x =
    let r = create () in
    of_limbs_into r (Uint256.limbs x);
    r

  let to_u256 a =
    let l = Array.make 16 0 in
    to_limbs_into l (create ()) a;
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

  (* r := a^(p-2) by libsecp256k1's addition chain, 255 squarings and
     15 multiplications: about a third of the time of a binary GCD.
     [tmp] holds seven elements of scratch, none of them [r] or [a]. *)
  let inv_into tmp r a =
    if is_zero a then invalid_arg "Secp256k1.fe_inv: zero";
    let x2 = tmp.(0) and x3 = tmp.(1) and x6 = tmp.(2) and x11 = tmp.(3)
    and x22 = tmp.(4) and x44 = tmp.(5) and t = tmp.(6) in
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
    mul_into r x6 a

  let inv a =
    let r = create () in
    inv_into (Array.init 7 (fun _ -> create ())) r a;
    r

  (* a ≡ b: their difference, in [d], is zero *)
  let equal_into d a b =
    sub_nc_into d 1 a b;
    normalize_weak d;
    is_zero d

  let equal a b = equal_into (create ()) a b

  let one_fe = one ()
  let is_one a = equal a one_fe
end

(* --- scalar arithmetic modulo the group order n -------------------------

   A scalar being computed is sixteen little-endian 16-bit limbs in an
   [int array]: limb products fit 32 bits and a product column about 37,
   so every step is native int arithmetic.  As with the field, every
   operation writes into a scalar its caller owns ([_into] forms, the
   destination may be an input), and [mul_into] builds its 512-bit
   product in a 64-limb [scratch], also the caller's.  The product is
   reduced by folding hi·2^256 + lo into lo + hi·(2^256 − n) until it
   fits 256 bits, then subtracting n at most once (2^256 < 2n).  A
   scalar leaves the kernel only as a copy ([to_u256], encoded bytes),
   so one that may still be written never crosses a call boundary. *)

module Scalar = struct
  type t = int array
  type scratch = int array

  let n = n
  let nl = 16
  let mask = 0xFFFF
  let create () = Array.make nl 0
  let scratch () = Array.make (4 * nl) 0
  let of_u256 x = Array.copy (Uint256.limbs x)
  let set_u256 r x = Array.blit (Uint256.limbs x) 0 r 0 nl
  let to_u256 a = Uint256.of_limbs a
  let n_l = of_u256 n
  let one_l = of_u256 Uint256.one

  let is_zero a =
    let z = ref 0 in
    for i = 0 to nl - 1 do
      z := !z lor a.(i)
    done;
    !z = 0

  (* a >= b *)
  let geq a b =
    let i = ref (nl - 1) in
    while !i > 0 && a.(!i) = b.(!i) do
      decr i
    done;
    a.(!i) >= b.(!i)

  (* 1 <= a < n *)
  let in_range a = (not (is_zero a)) && not (geq a n_l)

  (* r := a + b mod 2^256; the carry out *)
  let add_raw r a b =
    let c = ref 0 in
    for i = 0 to nl - 1 do
      let s = a.(i) + b.(i) + !c in
      r.(i) <- s land mask;
      c := s lsr 16
    done;
    !c

  (* r := a − b mod 2^256; the borrow out *)
  let sub_raw r a b =
    let c = ref 0 in
    for i = 0 to nl - 1 do
      let s = a.(i) - b.(i) - !c in
      r.(i) <- s land mask;
      c := (s asr 16) land 1
    done;
    !c

  (* a < 2^256 mod n: one conditional subtraction, since 2^256 < 2n *)
  let reduce_into r a =
    if geq a n_l then ignore (sub_raw r a n_l)
    else if r != a then Array.blit a 0 r 0 nl

  (* for a, b < n *)
  let add_into r a b =
    if add_raw r a b <> 0 || geq r n_l then ignore (sub_raw r r n_l)

  let sub_into r a b = if sub_raw r a b <> 0 then ignore (add_raw r r n_l)

  (* r := the 32 big-endian bytes of [b] at [off], unreduced *)
  let load r b off =
    for i = 0 to nl - 1 do
      let o = off + 30 - (2 * i) in
      r.(i) <- (Char.code (Bytes.get b o) lsl 8) lor Char.code (Bytes.get b (o + 1))
    done

  let store b off a =
    for i = 0 to nl - 1 do
      let o = off + 30 - (2 * i) in
      Bytes.set b o (Char.unsafe_chr (a.(i) lsr 8));
      Bytes.set b (o + 1) (Char.unsafe_chr (a.(i) land 0xFF))
    done

  let n_minus_1 =
    let r = create () in
    ignore (sub_raw r n_l one_l);
    r

  (* r := v mod (n − 1) + 1 for the 32 bytes v at [off], a scalar in
     [1, n − 1]: v < 2^256 < 2(n − 1), so one conditional subtraction *)
  let load_nonzero r b off =
    load r b off;
    if geq r n_minus_1 then ignore (sub_raw r r n_minus_1);
    ignore (add_raw r r one_l)

  (* 2^256 − n: 129 bits, nine limbs *)
  let t_n =
    let r = create () in
    ignore (sub_raw r (create ()) n_l);
    r

  let t_n_len = 9

  (* w[0, 32) := a·b *)
  let product w a b =
    Array.fill w 0 (2 * nl) 0;
    for i = 0 to nl - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let c = ref 0 in
        for j = 0 to nl - 1 do
          let s = w.(i + j) + (ai * b.(j)) + !c in
          w.(i + j) <- s land mask;
          c := s lsr 16
        done;
        w.(i + nl) <- !c
      end
    done

  (* the length of w[o, o + len) without its zero top limbs *)
  let significant w o len =
    let l = ref len in
    while !l > 0 && w.(o + !l - 1) = 0 do
      decr l
    done;
    !l

  (* w[dst, dst + 32) := w[src, src + 16) + w[src + 16, src + len)·t_n,
     congruent mod n; its significant length *)
  let fold w src len dst =
    Array.fill w dst (2 * nl) 0;
    Array.blit w src w dst nl;
    for i = 0 to len - nl - 1 do
      let h = w.(src + nl + i) in
      if h <> 0 then begin
        let c = ref 0 in
        for j = 0 to t_n_len - 1 do
          let k = dst + i + j in
          let s = w.(k) + (h * t_n.(j)) + !c in
          w.(k) <- s land mask;
          c := s lsr 16
        done;
        let k = ref (dst + i + t_n_len) in
        while !c <> 0 do
          let s = w.(!k) + !c in
          w.(!k) <- s land mask;
          c := s lsr 16;
          incr k
        done
      end
    done;
    significant w dst (2 * nl)

  (* r := a·b mod n, the product and its folds in the two halves of [w] *)
  let mul_into w r a b =
    product w a b;
    let src = ref 0 and len = ref (significant w 0 (2 * nl)) in
    while !len > nl do
      let dst = (2 * nl) - !src in
      len := fold w !src !len dst;
      src := dst
    done;
    Array.blit w !src r 0 nl;
    if geq r n_l then ignore (sub_raw r r n_l)

  (* --- inversion: binary extended GCD on five 52-bit limbs -------------
     Packing quarters the limb count, and the spare bits of the top limb
     (n < 2^256, so limb 4 is below 2^48) absorb the transient x + n, so
     no carry word is needed.  The working values stay below 2n. *)

  let gl = 5
  let gb = 52
  let gmask = (1 lsl gb) - 1

  (* gather bits [52j, 52j + 52) of 16-bit limbs: 52j mod 16 is at most
     12, so four source limbs always suffice *)
  let pack r a =
    for j = 0 to gl - 1 do
      let b = gb * j in
      let i = b lsr 4 and sh = b land 15 in
      let v = ref (a.(i) lsr sh) in
      if i + 1 < nl then v := !v lor (a.(i + 1) lsl (16 - sh));
      if i + 2 < nl then v := !v lor (a.(i + 2) lsl (32 - sh));
      if i + 3 < nl then v := !v lor (a.(i + 3) lsl (48 - sh));
      r.(j) <- !v land gmask
    done

  let unpack r a =
    for i = 0 to nl - 1 do
      let b = i * 16 in
      let j = b / gb and sh = b mod gb in
      let v = ref (a.(j) lsr sh) in
      if j + 1 < gl then v := !v lor (a.(j + 1) lsl (gb - sh));
      r.(i) <- !v land mask
    done

  let n52 =
    let r = Array.make gl 0 in
    pack r n_l;
    r

  let g_is a v = a.(0) = v && a.(1) = 0 && a.(2) = 0 && a.(3) = 0 && a.(4) = 0
  let g_even a = a.(0) land 1 = 0

  let g_geq a b =
    let i = ref (gl - 1) in
    while !i > 0 && a.(!i) = b.(!i) do
      decr i
    done;
    a.(!i) >= b.(!i)

  let g_sub a b =
    let c = ref 0 in
    for i = 0 to gl - 1 do
      let s = a.(i) - b.(i) - !c in
      a.(i) <- s land gmask;
      c := (s asr gb) land 1
    done

  let g_half a =
    for i = 0 to gl - 2 do
      a.(i) <- (a.(i) lsr 1) lor ((a.(i + 1) land 1) lsl (gb - 1))
    done;
    a.(gl - 1) <- a.(gl - 1) lsr 1

  let g_add_n a =
    let c = ref 0 in
    for i = 0 to gl - 1 do
      let s = a.(i) + n52.(i) + !c in
      a.(i) <- s land gmask;
      c := s lsr gb
    done

  (* a/2 mod n *)
  let g_half_mod a =
    if not (g_even a) then g_add_n a;
    g_half a

  (* a := a − b mod n *)
  let g_sub_mod a b =
    if not (g_geq a b) then g_add_n a;
    g_sub a b

  (* r := x⁻¹ mod n, for x in [1, n) *)
  let inv_into r x =
    if is_zero x then invalid_arg "Secp256k1.Scalar.inv: zero";
    let u = Array.make gl 0 and v = Array.copy n52 in
    let x1 = Array.make gl 0 and x2 = Array.make gl 0 in
    pack u x;
    x1.(0) <- 1;
    while (not (g_is u 1)) && not (g_is v 1) do
      while g_even u do
        g_half u;
        g_half_mod x1
      done;
      while g_even v do
        g_half v;
        g_half_mod x2
      done;
      if g_geq u v then begin
        g_sub u v;
        g_sub_mod x1 x2
      end
      else begin
        g_sub v u;
        g_sub_mod x2 x1
      end;
      if g_is u 0 || g_is v 0 then invalid_arg "Secp256k1.Scalar.inv: not coprime"
    done;
    unpack r (if g_is u 1 then x1 else x2)

  (* ws.(i) := xs.(i)⁻¹ for i < count, every xs.(i) in [1, n), with one
     inversion and 3(count − 1) products (Montgomery's trick); ws holds
     the prefix products on the way, so no element of it may be one of
     xs *)
  let inv_batch_into w ws xs count =
    if count > 0 then begin
      Array.blit xs.(0) 0 ws.(0) 0 nl;
      for i = 1 to count - 1 do
        mul_into w ws.(i) ws.(i - 1) xs.(i)
      done;
      let acc = create () in
      inv_into acc ws.(count - 1);
      for i = count - 1 downto 1 do
        mul_into w ws.(i) acc ws.(i - 1);
        mul_into w acc acc xs.(i)
      done;
      Array.blit acc 0 ws.(0) 0 nl
    end

  (* --- GLV scalar decomposition ---------------------------------------
     k = k1 + k2*lambda (mod n) with |k1|, |k2| <= 2^128: the standard
     lattice basis for secp256k1 with c_i = round(k*g_i / 2^384), where
     g1 = round(2^384*b2/n) and g2 = round(2^384*(-b1)/n). *)

  let g1 =
    of_u256
      (Uint256.of_hex
         "3086d221a7d46bcde86c90e49284eb153daa8a1471e8ca7fe893209a45dbb031")

  let g2 =
    of_u256
      (Uint256.of_hex
         "e4437ed6010e88286f547fa90abfe4c4221208ac9df506c61571b4ae8ac47f71")

  let minus_b1 = of_u256 (Uint256.of_hex "e4437ed6010e88286f547fa90abfe4c3")

  let minus_b2 =
    of_u256
      (Uint256.of_hex
         "fffffffffffffffffffffffffffffffe8a280ac50774346dd765cda83db1562c")

  let half_n =
    of_u256
      (Uint256.of_hex
         "7fffffffffffffffffffffffffffffff5d576e7357a4501ddfe92f46681b20a0")

  let lambda = of_u256 lambda

  (* c := round(k·g / 2^384): limbs 24..31 of the product, plus the
     rounding bit at position 383 *)
  let mul_shift_384 w c k g =
    product w k g;
    Array.blit w 24 c 0 8;
    Array.fill c 8 8 0;
    if w.(23) land 0x8000 <> 0 then ignore (add_raw c c one_l)

  (* v := n − v when v > n/2; whether it did *)
  let norm v = if geq half_n v then false else (ignore (sub_raw v n_l v); true)

  (* [split w c1 c2 k k1 k2] (k < n) writes |k1| and |k2| into [k1] and
     [k2], with k = ±k1 ± k2·λ (mod n) and both at most 2^128; [c1] and
     [c2] are scratch.  Bit 0 of the result is set when k1 is negated,
     bit 1 when k2 is. *)
  let split w c1 c2 k k1 k2 =
    mul_shift_384 w c1 k g1;
    mul_shift_384 w c2 k g2;
    mul_into w k2 c1 minus_b1;
    mul_into w c1 c2 minus_b2;
    add_into k2 k2 c1;
    mul_into w c1 k2 lambda;
    sub_into k1 k c1;
    let neg1 = norm k1 in
    let neg2 = norm k2 in
    Bool.to_int neg1 lor (Bool.to_int neg2 lsl 1)

  (* the [Uint256] forms: each copies its operands in and its result out *)
  let reduced x =
    let r = of_u256 x in
    reduce_into r r;
    r

  let reduce x = to_u256 (reduced x)

  let mul a b =
    let r = create () in
    mul_into (scratch ()) r (of_u256 a) (of_u256 b);
    to_u256 r

  let add a b =
    let r = create () in
    add_into r (of_u256 a) (of_u256 b);
    to_u256 r

  let inv x =
    let r = reduced x in
    inv_into r r;
    to_u256 r
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
let p_l = Scalar.of_u256 p

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

   The ladders and table builds below run dozens to thousands of group
   operations per call.  Each call keeps its running point in one
   [acc]: three coordinate elements updated in place, a Jacobian
   operand (ox, oy, oz) and the temporaries of one doubling or addition,
   about 150 words allocated once per call.  An [acc] never outlives the
   call that made it and is never shared.  A module-level buffer would
   be shared by every domain (pooled π_c verifies and read-path π_s
   signs run at once), and a [Domain.DLS] slot by every systhread of one
   domain, which the runtime may switch between mid-ladder.  [freeze]
   hands the coordinates over as an immutable [point], after which the
   [acc] is dropped.  An acc whose z is zero is the point at infinity,
   whatever its x and y. *)

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
  ox : Fe.t;
  oy : Fe.t;
  oz : Fe.t;
  tmp : Fe.t array; (* [Fe.inv_into]'s scratch: the point, operand and t5 *)
}

let new_acc () =
  let f = Fe.create in
  let ax = f () and ay = f () and az = f () and t5 = f () in
  let ox = f () and oy = f () and oz = f () in
  { ax; ay; az; t0 = f (); t1 = f (); t2 = f (); t3 = f (); t4 = f (); t5;
    ox; oy; oz; tmp = [| ax; ay; az; ox; oy; oz; t5 |] }

let set_point s pt =
  Bytes.blit pt.x 0 s.ax 0 Fe.size;
  Bytes.blit pt.y 0 s.ay 0 Fe.size;
  Bytes.blit pt.z 0 s.az 0 Fe.size

let acc_of pt =
  let s = new_acc () in
  set_point s pt;
  s

let freeze s =
  if Fe.is_zero s.az then infinity else { x = s.ax; y = s.ay; z = s.az }

let set_infinity s = Bytes.fill s.az 0 Fe.size '\000'

(* the operand := the accumulator's point *)
let to_operand s =
  Bytes.blit s.ax 0 s.ox 0 Fe.size;
  Bytes.blit s.ay 0 s.oy 0 Fe.size;
  Bytes.blit s.az 0 s.oz 0 Fe.size

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

(* s += (x2, y2, z2) in place, or (x2, y2, 1) when [affine] (z2 is then
   not read): general Jacobian addition is 11M + 5S, mixed addition 7M +
   4S.  The operand's elements must not be ones this function writes:
   the accumulator's coordinates, t0..t3, and t4 and t5 when the operand
   is Jacobian (an affine operand may sit in t4 and t5). *)
let add_into s affine x2 y2 z2 =
  if Fe.is_zero s.az then begin
    Bytes.blit x2 0 s.ax 0 Fe.size;
    Bytes.blit y2 0 s.ay 0 Fe.size;
    if affine then begin
      Bytes.fill s.az 0 Fe.size '\000';
      Bytes.set s.az 0 '\001'
    end
    else Bytes.blit z2 0 s.az 0 Fe.size
  end
  else if (not affine) && Fe.is_zero z2 then ()
  else begin
    (* u1 = x1·z2², s1 = y1·z2³: just x1 and y1 for an affine operand *)
    let u1, s1 =
      if affine then (s.ax, s.ay)
      else begin
        Fe.sqr_into s.t4 z2;
        Fe.mul_into s.t5 s.t4 z2;
        Fe.mul_into s.t4 s.ax s.t4;
        Fe.mul_into s.t5 s.ay s.t5;
        (s.t4, s.t5)
      end
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
      if not affine then Fe.mul_into s.az s.az z2;
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

(* s += the operand *)
let add_operand s = add_into s false s.ox s.oy s.oz

(* s += ±(the affine point whose x is at byte [xoff] of [xs] and whose y
   is at byte [yoff] of [ys]) *)
let add_affine s xs xoff ys yoff negative =
  Bytes.blit xs xoff s.t4 0 Fe.size;
  Bytes.blit ys yoff s.t5 0 Fe.size;
  if negative then Fe.neg_into s.t5 s.t5;
  add_into s true s.t4 s.t5 s.t5

let double pt =
  let s = acc_of pt in
  double_into s;
  freeze s

let add p1 p2 =
  let s = acc_of p2 in
  to_operand s;
  set_point s p1;
  add_operand s;
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

(* --- flat point tables ----------------------------------------------------

   A table holds affine points back to back in one [Bytes]: entry i's x
   at byte 160·i and its y at byte 160·i + 80, each a weak field
   element, 20 words a point.  Table builds and batch signing first
   write Jacobian points the same way, X, Y and Z of entry i at byte
   240·i, straight from the accumulator, and convert them in place. *)

let entry = 2 * Fe.size
let jentry = 3 * Fe.size

(* s := the Jacobian point at entry [i] of [buf] *)
let load s buf i =
  let o = i * jentry in
  Bytes.blit buf o s.ax 0 Fe.size;
  Bytes.blit buf (o + Fe.size) s.ay 0 Fe.size;
  Bytes.blit buf (o + entry) s.az 0 Fe.size

let store s buf i =
  let o = i * jentry in
  Bytes.blit s.ax 0 buf o Fe.size;
  Bytes.blit s.ay 0 buf (o + Fe.size) Fe.size;
  Bytes.blit s.az 0 buf (o + entry) Fe.size

(* Invert in place the [count] nonzero elements at bytes [off + stride·i]
   of [buf] with one inversion and 3(count − 1) products (Montgomery's
   trick), keeping the prefix products at bytes [poff + pstride·i] of
   [pre].  Uses t0, t1, t2 and the inversion scratch, which holds s's
   point. *)
let inv_batch_into s buf off stride count pre poff pstride =
  if count > 0 then begin
    Bytes.blit buf off pre poff Fe.size;
    for i = 1 to count - 1 do
      Bytes.blit pre (poff + ((i - 1) * pstride)) s.t0 0 Fe.size;
      Bytes.blit buf (off + (stride * i)) s.t1 0 Fe.size;
      Fe.mul_into s.t0 s.t0 s.t1;
      Bytes.blit s.t0 0 pre (poff + (i * pstride)) Fe.size
    done;
    Bytes.blit pre (poff + ((count - 1) * pstride)) s.t0 0 Fe.size;
    Fe.inv_into s.tmp s.t2 s.t0;
    (* t2 = (x_0 ··· x_i)⁻¹; x_i⁻¹ = t2 · pre_(i−1) *)
    for i = count - 1 downto 1 do
      let o = off + (stride * i) in
      Bytes.blit pre (poff + ((i - 1) * pstride)) s.t0 0 Fe.size;
      Fe.mul_into s.t0 s.t2 s.t0;
      Bytes.blit buf o s.t1 0 Fe.size;
      Fe.mul_into s.t2 s.t2 s.t1;
      Bytes.blit s.t0 0 buf o Fe.size
    done;
    Bytes.blit s.t2 0 buf off Fe.size
  end

(* Write the affine forms of the [count] finite Jacobian points of [jac]
   into [xy] from entry [first] on, with one shared inversion; [pre] is
   scratch of count·80 bytes. *)
let store_affine s jac count pre xy first =
  inv_batch_into s jac entry jentry count pre 0 Fe.size;
  for i = 0 to count - 1 do
    let o = i * jentry and d = (first + i) * entry in
    (* t2 = 1/z, t3 = 1/z² *)
    Bytes.blit jac (o + entry) s.t2 0 Fe.size;
    Fe.sqr_into s.t3 s.t2;
    Bytes.blit jac o s.t0 0 Fe.size;
    Fe.mul_into s.t0 s.t0 s.t3;
    Bytes.blit s.t0 0 xy d Fe.size;
    Fe.mul_into s.t3 s.t3 s.t2;
    Bytes.blit jac (o + Fe.size) s.t0 0 Fe.size;
    Fe.mul_into s.t0 s.t0 s.t3;
    Bytes.blit s.t0 0 xy (d + Fe.size) Fe.size
  done

(* Entries base + 1 .. base + count − 1 of [jac] := 3P, 5P, …, for the P
   at entry [base]. *)
let odd_multiples s jac base count =
  load s jac base;
  double_into s;
  to_operand s;
  load s jac base;
  for i = 1 to count - 1 do
    add_operand s;
    store s jac (base + i)
  done

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

(* The table of the finite point in [s], which it overwrites: every
   multiple is written straight into one flat Jacobian buffer and
   converted with one shared inversion, [lx] holding the prefix
   products until it is filled. *)
let make_table w s =
  let count = 1 lsl (w - 2) in
  let jac = Bytes.create (2 * count * jentry) in
  store s jac 0;
  for _ = 1 to split_bits do
    double_into s
  done;
  store s jac count;
  odd_multiples s jac 0 count;
  odd_multiples s jac count count;
  let xy = Bytes.create (2 * count * entry) in
  let lx = Bytes.create (2 * count * Fe.size) in
  store_affine s jac (2 * count) lx xy 0;
  for i = 0 to (2 * count) - 1 do
    Bytes.blit xy (i * entry) s.t0 0 Fe.size;
    Fe.mul_into s.t0 beta_fe s.t0;
    Bytes.blit s.t0 0 lx (i * Fe.size) Fe.size
  done;
  { w; count; xy; lx }

(* Width for the tables of arbitrary points (8 odd multiples per
   stream) and for the fixed G table (256 per stream, built once at
   module initialization, single-threaded, so safe under domains). *)
let pt_window = 5
let g_window = 10

let precompute pt =
  if is_infinity pt then invalid_arg "Secp256k1.precompute: infinity";
  make_table pt_window (acc_of pt)

(* the 64-byte encoding x ∥ y of the tabled point *)
let table_to_bytes tb =
  let b = Bytes.create 64 and l = Scalar.create () in
  let w = Fe.create () and e = Fe.create () in
  for k = 0 to 1 do
    Bytes.blit tb.xy (k * Fe.size) e 0 Fe.size;
    Fe.to_limbs_into l w e;
    Scalar.store b (32 * k) l
  done;
  b

(* Room for the wNAF digits of a GLV half: |k1|, |k2| <= 2^128 fill at
   most nine limbs, 144 bits and one more digit.  Four strings take 145
   words, so a verify's scratch stays in the minor heap. *)
let digits_stride = 2 * ((16 * 9) + 1)

(* bits [pos, pos + w) of the 16-bit limbs [l], w <= 16 *)
let window l pos w =
  let i = pos lsr 4 and sh = pos land 15 in
  let v = if i < 16 then l.(i) lsr sh else 0 in
  let v = if i + 1 < 16 then v lor (l.(i + 1) lsl (16 - sh)) else v in
  v land ((1 lsl w) - 1)

(* Width-w non-adjacent form of a GLV half v (< 2^144) into [d] from
   byte [o] on:
   digit i is zero or odd in (-2^(w-1), 2^(w-1)), with at most one
   nonzero digit in any w consecutive positions.  Each window of w bits
   is read straight from v's 16-bit limbs, with a carry standing in for
   the digit subtracted; the string has one position more than v has
   bits, which absorbs the last carry, and that length is returned.
   Digits are 16-bit little-endian. *)
let wnaf_into d o v w =
  let top = ref 15 in
  while !top >= 0 && v.(!top) = 0 do
    decr top
  done;
  let nbits = if !top < 0 then 0 else 16 * (!top + 1) in
  if 2 * (nbits + 1) > digits_stride then invalid_arg "Secp256k1.wnaf: half too wide";
  Bytes.fill d o (2 * (nbits + 1)) '\000';
  let carry = ref 0 and bit = ref 0 in
  while !bit <= nbits do
    if window v !bit 1 = !carry then incr bit
    else begin
      (* bit + carry is odd, so the word is odd and below 2^w *)
      let word = window v !bit w + !carry in
      carry := word lsr (w - 1);
      Bytes.set_int16_le d (o + (2 * !bit)) (word - (!carry lsl w));
      bit := !bit + w
    end
  done;
  nbits + 1

(* s += ±(entry |d|/2 of one stream of [tb]): the λ stream reads its x
   from [lx] *)
let add_digit s tb lam base d negative =
  let i = base + (abs d lsr 1) in
  let y = (i * entry) + Fe.size in
  if lam then add_affine s tb.lx (i * Fe.size) tb.xy y negative
  else add_affine s tb.xy (i * entry) tb.xy y negative

(* Everything a ladder or a batch of them writes: the accumulator, the
   scalar product scratch and two scalar temporaries, the (up to two)
   scalars of one ladder, their GLV halves and each half's wNAF string.
   One per call, made once for all the items of a batch, never shared;
   about 520 words. *)
type ctx = {
  s : acc;
  sw : Scalar.scratch;
  c1 : Scalar.t;
  c2 : Scalar.t;
  ks : Scalar.t array;
  halves : Scalar.t array;
  lens : int array;
  digits : Bytes.t;
}

let ctx () =
  {
    s = new_acc ();
    sw = Scalar.scratch ();
    c1 = Scalar.create ();
    c2 = Scalar.create ();
    ks = Array.init 2 (fun _ -> Scalar.create ());
    halves = Array.init 4 (fun _ -> Scalar.create ());
    lens = Array.make 4 0;
    digits = Bytes.create (4 * digits_stride);
  }

(* c.s := the sum of k_t·P_t over the [nterms] (1 or 2) scalars c.ks.(t)
   (each < n) and the tables [ta], [tb] of the P_t: each scalar is
   GLV-split into two halves over P_t and λP_t, and each half's wNAF
   string into its two 64-digit streams; every stream shares one
   doubling chain (Shamir's trick).  A negated half flips its digit
   signs. *)
let ladder c nterms ta tb =
  let negs = ref 0 and steps = ref 0 in
  for h = 0 to (2 * nterms) - 1 do
    if h land 1 = 0 then
      negs :=
        !negs
        lor (Scalar.split c.sw c.c1 c.c2 c.ks.(h / 2) c.halves.(h)
               c.halves.(h + 1)
            lsl h);
    let t = if h < 2 then ta else tb in
    let len = wnaf_into c.digits (h * digits_stride) c.halves.(h) t.w in
    c.lens.(h) <- len;
    let need =
      if len <= split_bits then len
      else if len - split_bits > split_bits then len - split_bits
      else split_bits
    in
    if need > !steps then steps := need
  done;
  let s = c.s in
  set_infinity s;
  for i = !steps - 1 downto 0 do
    double_into s;
    for h = 0 to (2 * nterms) - 1 do
      let t = if h < 2 then ta else tb in
      let lam = h land 1 = 1 and neg = (!negs lsr h) land 1 = 1 in
      let len = c.lens.(h) and o = h * digits_stride in
      if i < split_bits && i < len then begin
        let di = Bytes.get_int16_le c.digits (o + (2 * i)) in
        if di <> 0 then add_digit s t lam 0 di ((di < 0) <> neg)
      end;
      let j = i + split_bits in
      if j < len then begin
        let dj = Bytes.get_int16_le c.digits (o + (2 * j)) in
        if dj <> 0 then add_digit s t lam t.count dj ((dj < 0) <> neg)
      end
    done
  done

(* ECDSA's final comparison without leaving Jacobian coordinates: does
   c.s have an affine x-coordinate congruent to [r] mod n?  x = X/Z^2,
   so test X = v·Z^2 for v = r and (since x < p may exceed n) v = r + n.
   An r + n that wraps past 2^256 is no candidate: it would be read as
   r - (2^256 - n). *)
let x_is s v =
  Fe.of_limbs_into s.t1 v;
  Fe.mul_into s.t1 s.t1 s.t0;
  Fe.equal_into s.t2 s.t1 s.ax

let acc_has_x_mod_n c r =
  let s = c.s in
  (not (Fe.is_zero s.az))
  && begin
       Fe.sqr_into s.t0 s.az;
       x_is s r
       || Scalar.add_raw c.c1 r Scalar.n_l = 0
          && (not (Scalar.geq c.c1 p_l))
          && x_is s c.c1
     end

let g_table = make_table g_window (acc_of generator)

let check_x c a b tq r =
  Scalar.reduce_into c.ks.(0) a;
  Scalar.reduce_into c.ks.(1) b;
  ladder c 2 g_table tq;
  acc_has_x_mod_n c r

let double_scalar_mul_base a b tq =
  let c = ctx () in
  Scalar.set_u256 c.ks.(0) a;
  Scalar.set_u256 c.ks.(1) b;
  Scalar.reduce_into c.ks.(0) c.ks.(0);
  Scalar.reduce_into c.ks.(1) c.ks.(1);
  ladder c 2 g_table tq;
  freeze c.s

let has_x_mod_n pt r =
  let c = ctx () in
  set_point c.s pt;
  acc_has_x_mod_n c (Scalar.of_u256 r)

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
let comb_offset = Scalar.reduced (Uint256.of_hex (String.make 64 'f'))

(* Built from 248 doublings and 4 × 134 additions on one accumulator,
   each block's points written into one flat Jacobian buffer and made
   affine with one shared inversion. *)
let make_comb () =
  let s = new_acc () in
  let xy = Bytes.create (comb_blocks * comb_points * entry) in
  let jac = Bytes.create (comb_points * jentry) in
  let teeth = Bytes.create (comb_teeth * jentry) in
  let twice = Bytes.create (comb_teeth * jentry) in
  let pre = Bytes.create (comb_points * Fe.size) in
  set_point s generator;
  for b = 0 to comb_blocks - 1 do
    (* tooth t = 2^(8t + 64b)·G *)
    for t = 0 to comb_teeth - 1 do
      if b > 0 || t > 0 then
        for _ = 1 to comb_spacing do
          double_into s
        done;
      store s teeth t
    done;
    (* flipping tooth t from −1 to +1 adds 2·(tooth t) *)
    for t = 0 to comb_teeth - 1 do
      load s teeth t;
      double_into s;
      store s twice t
    done;
    (* entry 0: tooth 7 less every other tooth *)
    load s teeth (comb_teeth - 1);
    for t = 0 to comb_teeth - 2 do
      let o = t * jentry in
      Bytes.blit teeth o s.ox 0 Fe.size;
      Bytes.blit teeth (o + Fe.size) s.oy 0 Fe.size;
      Bytes.blit teeth (o + entry) s.oz 0 Fe.size;
      Fe.neg_into s.oy s.oy;
      add_operand s
    done;
    store s jac 0;
    for m = 1 to comb_points - 1 do
      let low = ref 0 in
      while m land (1 lsl !low) = 0 do
        incr low
      done;
      load s twice !low;
      to_operand s;
      load s jac (m land (m - 1));
      add_operand s;
      store s jac m
    done;
    store_affine s jac comb_points pre xy (b * comb_points);
    (* the doubling chain goes on from this block's last tooth *)
    load s teeth (comb_teeth - 1)
  done;
  xy

let comb = make_comb ()

(* s := k·G; [t] and [d] are scratch *)
let comb_into s t d k =
  (* d = t/2 for t = k + 2^256 − 1 mod n, plus n first when t is odd;
     [carry] is bit 256 of that sum *)
  Scalar.reduce_into t k;
  Scalar.add_into t t comb_offset;
  let carry = if t.(0) land 1 = 1 then Scalar.add_raw t t Scalar.n_l else 0 in
  for i = 0 to 15 do
    let next = if i < 15 then t.(i + 1) else carry in
    d.(i) <- (t.(i) lsr 1) lor ((next land 1) lsl 15)
  done;
  set_infinity s;
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
  done

let scalar_mul_base k =
  let s = new_acc () in
  comb_into s (Scalar.create ()) (Scalar.create ()) (Scalar.of_u256 k);
  freeze s

let base_table k =
  let s = new_acc () in
  comb_into s (Scalar.create ()) (Scalar.create ()) (Scalar.of_u256 k);
  if Fe.is_zero s.az then None else Some (make_table pt_window s)

let resident_words () =
  Obj.reachable_words (Obj.repr comb) + Obj.reachable_words (Obj.repr g_table)

let table_build_words () =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (make_comb ()));
  ignore (Sys.opaque_identity (make_table g_window (acc_of generator)));
  Gc.minor_words () -. before

let is_generator pt =
  Fe.is_one pt.z && Fe.equal pt.x gx_fe && Fe.equal pt.y gy_fe

let scalar_mul k pt =
  if is_generator pt then scalar_mul_base k
  else if is_infinity pt then infinity
  else begin
    let c = ctx () in
    Scalar.set_u256 c.ks.(0) k;
    Scalar.reduce_into c.ks.(0) c.ks.(0);
    let tb = precompute pt in
    ladder c 1 tb tb;
    freeze c.s
  end

(* --- batches of k·G ------------------------------------------------------ *)

type points = Bytes.t

let points count = Bytes.create (count * jentry)

let mul_base_into c k pts i =
  comb_into c.s c.c1 c.c2 k;
  store c.s pts i

let x_mod_n_batch c pts count rs =
  let s = c.s in
  for i = 0 to count - 1 do
    let o = i * jentry in
    Bytes.blit pts (o + entry) s.t0 0 Fe.size;
    if Fe.is_zero s.t0 then begin
      (* the point at infinity as x = 0, z = 1: it reads r = 0 *)
      Bytes.fill pts o Fe.size '\000';
      Bytes.blit Fe.one_fe 0 pts (o + entry) Fe.size
    end
  done;
  (* the y slots, unread here, hold the prefix products *)
  inv_batch_into s pts entry jentry count pts Fe.size jentry;
  for i = 0 to count - 1 do
    let o = i * jentry in
    Bytes.blit pts (o + entry) s.t0 0 Fe.size;
    Fe.sqr_into s.t0 s.t0;
    Bytes.blit pts o s.t1 0 Fe.size;
    Fe.mul_into s.t1 s.t1 s.t0;
    Fe.to_limbs_into rs.(i) s.t2 s.t1;
    Scalar.reduce_into rs.(i) rs.(i)
  done

(* --- public field helpers (Uint256 views over the fast kernel) ---------- *)

let fe_add a b = Fe.to_u256 (Fe.add (Fe.of_u256 a) (Fe.of_u256 b))
let fe_sub a b = Fe.to_u256 (Fe.sub (Fe.of_u256 a) (Fe.of_u256 b))
let fe_mul a b = Fe.to_u256 (Fe.mul (Fe.of_u256 a) (Fe.of_u256 b))
let fe_sqr a = Fe.to_u256 (Fe.sqr (Fe.of_u256 a))
let fe_inv a = Fe.to_u256 (Fe.inv (Fe.of_u256 a))

let fe_inv_batch xs =
  let any_zero = Array.exists Uint256.is_zero xs in
  if any_zero then invalid_arg "Secp256k1.fe_inv_batch: zero element";
  let count = Array.length xs in
  let buf = Bytes.create (count * Fe.size) in
  Array.iteri (fun i x -> Bytes.blit (Fe.of_u256 x) 0 buf (i * Fe.size) Fe.size) xs;
  inv_batch_into (new_acc ()) buf 0 Fe.size count
    (Bytes.create (count * Fe.size)) 0 Fe.size;
  Array.init count (fun i -> Fe.to_u256 (Bytes.sub buf (i * Fe.size) Fe.size))
