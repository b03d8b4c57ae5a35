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
   Fast field kernel: ten little-endian limbs of 26 bits.

   Limb products are ≤ 52 bits and a comba column sums at most ten of
   them plus a sub-2^31 carry, staying below 2^56 — far inside the
   63-bit native int.  The pseudo-Mersenne structure folds in one shot:
   2^260 ≡ 2^36 + 15632 (mod p), so a high limb h at weight 2^(260+26j)
   contributes h·15632 at limb j and h·2^10 at limb j+1.  Every exported
   operation returns a canonical value (< p, limbs < 2^26).

   Multiplication, squaring, negation and the lazy sums below have
   destination-passing forms [op_into r ...] that write the result into
   storage the caller owns and allocate nothing; where an allocating
   form exists it is a wrapper over the [_into] one.  Every [_into] form
   reads all of its input limbs before it writes [r], so [r] may alias
   an input.  Only the point formulas below write into arrays,
   and only into scratch allocated for one call: an array that has left
   that call as part of a value is never mutated again, so values can
   be shared freely across domains.
   ====================================================================== *)

module Fe = struct
  type t = int array

  let nl = 10
  let mask = 0x3FFFFFF (* 2^26 - 1 *)

  (* little-endian 26-bit limbs of p = 2^256 - 2^32 - 977 *)
  let p_limbs =
    [|
      0x3fffc2f; 0x3ffffbf; 0x3ffffff; 0x3ffffff; 0x3ffffff; 0x3ffffff;
      0x3ffffff; 0x3ffffff; 0x3ffffff; 0x03fffff;
    |]

  let zero () = Array.make nl 0

  let one () =
    let a = Array.make nl 0 in
    a.(0) <- 1;
    a

  (* Loops rather than local recursive functions: a local function that
     closes over [a] is a fresh heap closure on every call, and these
     tests run several times per group operation. *)
  let is_zero a =
    let acc = ref 0 in
    for i = 0 to nl - 1 do
      acc := !acc lor Array.unsafe_get a i
    done;
    !acc = 0

  let is_one a =
    let acc = ref (Array.unsafe_get a 0 lxor 1) in
    for i = 1 to nl - 1 do
      acc := !acc lor Array.unsafe_get a i
    done;
    !acc = 0

  let equal a b =
    let acc = ref 0 in
    for i = 0 to nl - 1 do
      acc := !acc lor (Array.unsafe_get a i lxor Array.unsafe_get b i)
    done;
    !acc = 0

  let ge_p a =
    let i = ref (nl - 1) in
    while !i >= 0 && a.(!i) = p_limbs.(!i) do
      decr i
    done;
    !i < 0 || a.(!i) > p_limbs.(!i)

  let sub_p_inplace a =
    let borrow = ref 0 in
    for i = 0 to nl - 1 do
      let s = a.(i) - p_limbs.(i) - !borrow in
      if s < 0 then begin
        a.(i) <- s + mask + 1;
        borrow := 1
      end
      else begin
        a.(i) <- s;
        borrow := 0
      end
    done

  (* Conversions to/from the 16-bit-limb Uint256 representation.  Only
     used at kernel boundaries (scalars, encodings, the public fe API);
     the hot paths stay in 26-bit limbs throughout. *)
  let of_u256 x =
    let l = Uint256.limbs x in
    let r = Array.make nl 0 in
    for j = 0 to nl - 1 do
      let b = 26 * j in
      let i = b lsr 4 and sh = b land 15 in
      let v = ref (l.(i) lsr sh) in
      if i + 1 < 16 then v := !v lor (l.(i + 1) lsl (16 - sh));
      if i + 2 < 16 && sh > 6 then v := !v lor (l.(i + 2) lsl (32 - sh));
      r.(j) <- !v land mask
    done;
    r

  let to_u256 a =
    let l = Array.make 16 0 in
    for j = 0 to nl - 1 do
      let b = 26 * j in
      let i = b lsr 4 and sh = b land 15 in
      let v = a.(j) lsl sh in
      l.(i) <- (l.(i) lor v) land 0xFFFF;
      if i + 1 < 16 then l.(i + 1) <- (l.(i + 1) lor (v lsr 16)) land 0xFFFF;
      if i + 2 < 16 then l.(i + 2) <- (l.(i + 2) lor (v lsr 32)) land 0xFFFF
    done;
    Uint256.of_limbs l

  (* Fold the bits at and above 2^256 back down (2^256 ≡ 2^32 + 977),
     then subtract p at most once.  Callers guarantee the value is below
     2^260, i.e. fits ten limbs with limb 9 possibly above 2^22. *)
  let normalize r =
    while r.(nl - 1) >= 1 lsl 22 do
      let o = r.(nl - 1) lsr 22 in
      r.(nl - 1) <- r.(nl - 1) land 0x3FFFFF;
      r.(0) <- r.(0) + (o * 977);
      r.(1) <- r.(1) + (o lsl 6);
      let c = ref 0 in
      for j = 0 to nl - 1 do
        let s = r.(j) + !c in
        r.(j) <- s land mask;
        c := s lsr 26
      done
      (* the final carry is impossible: the folded value is < 2^260 and
         shrinks by o·p > 0 on every pass *)
    done;
    if ge_p r then sub_p_inplace r

  (* Fully-unrolled comba multiplication with fused reduction: the ten
     26-bit limbs are lifted into local variables, the nineteen product
     columns are accumulated with a running carry (each column sums at
     most ten 52-bit products plus a sub-2^31 carry, staying below 2^56),
     and the high half is folded straight down without materializing the
     20-limb intermediate, straight into [r].  Generated mechanically;
     checked against the reference field of the test suites. *)
  let mul_into r a b =
    let a0 = Array.unsafe_get a 0 in
    let a1 = Array.unsafe_get a 1 in
    let a2 = Array.unsafe_get a 2 in
    let a3 = Array.unsafe_get a 3 in
    let a4 = Array.unsafe_get a 4 in
    let a5 = Array.unsafe_get a 5 in
    let a6 = Array.unsafe_get a 6 in
    let a7 = Array.unsafe_get a 7 in
    let a8 = Array.unsafe_get a 8 in
    let a9 = Array.unsafe_get a 9 in
    let b0 = Array.unsafe_get b 0 in
    let b1 = Array.unsafe_get b 1 in
    let b2 = Array.unsafe_get b 2 in
    let b3 = Array.unsafe_get b 3 in
    let b4 = Array.unsafe_get b 4 in
    let b5 = Array.unsafe_get b 5 in
    let b6 = Array.unsafe_get b 6 in
    let b7 = Array.unsafe_get b 7 in
    let b8 = Array.unsafe_get b 8 in
    let b9 = Array.unsafe_get b 9 in
    let c = 0 in
    let s = c + (a0 * b0) in
    let t0 = s land mask in
    let c = s lsr 26 in
    let s = c + (a0 * b1) + (a1 * b0) in
    let t1 = s land mask in
    let c = s lsr 26 in
    let s = c + (a0 * b2) + (a1 * b1) + (a2 * b0) in
    let t2 = s land mask in
    let c = s lsr 26 in
    let s = c + (a0 * b3) + (a1 * b2) + (a2 * b1) + (a3 * b0) in
    let t3 = s land mask in
    let c = s lsr 26 in
    let s = c + (a0 * b4) + (a1 * b3) + (a2 * b2) + (a3 * b1) + (a4 * b0) in
    let t4 = s land mask in
    let c = s lsr 26 in
    let s = c + (a0 * b5) + (a1 * b4) + (a2 * b3) + (a3 * b2) + (a4 * b1) + (a5 * b0) in
    let t5 = s land mask in
    let c = s lsr 26 in
    let s = c + (a0 * b6) + (a1 * b5) + (a2 * b4) + (a3 * b3) + (a4 * b2) + (a5 * b1) + (a6 * b0) in
    let t6 = s land mask in
    let c = s lsr 26 in
    let s = c + (a0 * b7) + (a1 * b6) + (a2 * b5) + (a3 * b4) + (a4 * b3) + (a5 * b2) + (a6 * b1) + (a7 * b0) in
    let t7 = s land mask in
    let c = s lsr 26 in
    let s = c + (a0 * b8) + (a1 * b7) + (a2 * b6) + (a3 * b5) + (a4 * b4) + (a5 * b3) + (a6 * b2) + (a7 * b1) + (a8 * b0) in
    let t8 = s land mask in
    let c = s lsr 26 in
    let s = c + (a0 * b9) + (a1 * b8) + (a2 * b7) + (a3 * b6) + (a4 * b5) + (a5 * b4) + (a6 * b3) + (a7 * b2) + (a8 * b1) + (a9 * b0) in
    let t9 = s land mask in
    let c = s lsr 26 in
    let s = c + (a1 * b9) + (a2 * b8) + (a3 * b7) + (a4 * b6) + (a5 * b5) + (a6 * b4) + (a7 * b3) + (a8 * b2) + (a9 * b1) in
    let t10 = s land mask in
    let c = s lsr 26 in
    let s = c + (a2 * b9) + (a3 * b8) + (a4 * b7) + (a5 * b6) + (a6 * b5) + (a7 * b4) + (a8 * b3) + (a9 * b2) in
    let t11 = s land mask in
    let c = s lsr 26 in
    let s = c + (a3 * b9) + (a4 * b8) + (a5 * b7) + (a6 * b6) + (a7 * b5) + (a8 * b4) + (a9 * b3) in
    let t12 = s land mask in
    let c = s lsr 26 in
    let s = c + (a4 * b9) + (a5 * b8) + (a6 * b7) + (a7 * b6) + (a8 * b5) + (a9 * b4) in
    let t13 = s land mask in
    let c = s lsr 26 in
    let s = c + (a5 * b9) + (a6 * b8) + (a7 * b7) + (a8 * b6) + (a9 * b5) in
    let t14 = s land mask in
    let c = s lsr 26 in
    let s = c + (a6 * b9) + (a7 * b8) + (a8 * b7) + (a9 * b6) in
    let t15 = s land mask in
    let c = s lsr 26 in
    let s = c + (a7 * b9) + (a8 * b8) + (a9 * b7) in
    let t16 = s land mask in
    let c = s lsr 26 in
    let s = c + (a8 * b9) + (a9 * b8) in
    let t17 = s land mask in
    let c = s lsr 26 in
    let s = c + (a9 * b9) in
    let t18 = s land mask in
    let c = s lsr 26 in
    let t19 = c in
    (* fold limbs 10..19 down: 2^260 == 2^36 + 15632 (mod p) *)
    let c = 0 in
    let s = c + t0 + (t10 * 15632) in
    let r0 = s land mask in
    let c = s lsr 26 in
    let s = c + t1 + (t11 * 15632) + (t10 lsl 10) in
    let r1 = s land mask in
    let c = s lsr 26 in
    let s = c + t2 + (t12 * 15632) + (t11 lsl 10) in
    let r2 = s land mask in
    let c = s lsr 26 in
    let s = c + t3 + (t13 * 15632) + (t12 lsl 10) in
    let r3 = s land mask in
    let c = s lsr 26 in
    let s = c + t4 + (t14 * 15632) + (t13 lsl 10) in
    let r4 = s land mask in
    let c = s lsr 26 in
    let s = c + t5 + (t15 * 15632) + (t14 lsl 10) in
    let r5 = s land mask in
    let c = s lsr 26 in
    let s = c + t6 + (t16 * 15632) + (t15 lsl 10) in
    let r6 = s land mask in
    let c = s lsr 26 in
    let s = c + t7 + (t17 * 15632) + (t16 lsl 10) in
    let r7 = s land mask in
    let c = s lsr 26 in
    let s = c + t8 + (t18 * 15632) + (t17 lsl 10) in
    let r8 = s land mask in
    let c = s lsr 26 in
    let s = c + t9 + (t19 * 15632) + (t18 lsl 10) in
    let r9 = s land mask in
    let c = s lsr 26 in
    let h = (t19 lsl 10) + c in
    (* second fold: h at weight 2^260 is < 2^38 *)
    let s = r0 + (h * 15632) in
    let r0 = s land mask in
    let s = (s lsr 26) + r1 + (h lsl 10) in
    let r1 = s land mask in
    let c = s lsr 26 in
    let s = c + r2 in
    let r2 = s land mask in
    let c = s lsr 26 in
    let s = c + r3 in
    let r3 = s land mask in
    let c = s lsr 26 in
    let s = c + r4 in
    let r4 = s land mask in
    let c = s lsr 26 in
    let s = c + r5 in
    let r5 = s land mask in
    let c = s lsr 26 in
    let s = c + r6 in
    let r6 = s land mask in
    let c = s lsr 26 in
    let s = c + r7 in
    let r7 = s land mask in
    let c = s lsr 26 in
    let s = c + r8 in
    let r8 = s land mask in
    let c = s lsr 26 in
    let s = c + r9 in
    let r9 = s land mask in
    let c = s lsr 26 in
    (* any carry past limb 9 re-enters at 2^260; normalize eats it *)
    Array.unsafe_set r 0 r0;
    Array.unsafe_set r 1 r1;
    Array.unsafe_set r 2 r2;
    Array.unsafe_set r 3 r3;
    Array.unsafe_set r 4 r4;
    Array.unsafe_set r 5 r5;
    Array.unsafe_set r 6 r6;
    Array.unsafe_set r 7 r7;
    Array.unsafe_set r 8 r8;
    Array.unsafe_set r 9 (r9 lor (c lsl 26));
    normalize r

  let mul a b =
    let r = Array.make nl 0 in
    mul_into r a b;
    r

  let sqr_into r a =
    let a0 = Array.unsafe_get a 0 in
    let a1 = Array.unsafe_get a 1 in
    let a2 = Array.unsafe_get a 2 in
    let a3 = Array.unsafe_get a 3 in
    let a4 = Array.unsafe_get a 4 in
    let a5 = Array.unsafe_get a 5 in
    let a6 = Array.unsafe_get a 6 in
    let a7 = Array.unsafe_get a 7 in
    let a8 = Array.unsafe_get a 8 in
    let a9 = Array.unsafe_get a 9 in
    let c = 0 in
    let s = c + (a0 * a0) in
    let t0 = s land mask in
    let c = s lsr 26 in
    let s = c + (2 * ((a0 * a1))) in
    let t1 = s land mask in
    let c = s lsr 26 in
    let s = c + (2 * ((a0 * a2))) + (a1 * a1) in
    let t2 = s land mask in
    let c = s lsr 26 in
    let s = c + (2 * ((a0 * a3) + (a1 * a2))) in
    let t3 = s land mask in
    let c = s lsr 26 in
    let s = c + (2 * ((a0 * a4) + (a1 * a3))) + (a2 * a2) in
    let t4 = s land mask in
    let c = s lsr 26 in
    let s = c + (2 * ((a0 * a5) + (a1 * a4) + (a2 * a3))) in
    let t5 = s land mask in
    let c = s lsr 26 in
    let s = c + (2 * ((a0 * a6) + (a1 * a5) + (a2 * a4))) + (a3 * a3) in
    let t6 = s land mask in
    let c = s lsr 26 in
    let s = c + (2 * ((a0 * a7) + (a1 * a6) + (a2 * a5) + (a3 * a4))) in
    let t7 = s land mask in
    let c = s lsr 26 in
    let s = c + (2 * ((a0 * a8) + (a1 * a7) + (a2 * a6) + (a3 * a5))) + (a4 * a4) in
    let t8 = s land mask in
    let c = s lsr 26 in
    let s = c + (2 * ((a0 * a9) + (a1 * a8) + (a2 * a7) + (a3 * a6) + (a4 * a5))) in
    let t9 = s land mask in
    let c = s lsr 26 in
    let s = c + (2 * ((a1 * a9) + (a2 * a8) + (a3 * a7) + (a4 * a6))) + (a5 * a5) in
    let t10 = s land mask in
    let c = s lsr 26 in
    let s = c + (2 * ((a2 * a9) + (a3 * a8) + (a4 * a7) + (a5 * a6))) in
    let t11 = s land mask in
    let c = s lsr 26 in
    let s = c + (2 * ((a3 * a9) + (a4 * a8) + (a5 * a7))) + (a6 * a6) in
    let t12 = s land mask in
    let c = s lsr 26 in
    let s = c + (2 * ((a4 * a9) + (a5 * a8) + (a6 * a7))) in
    let t13 = s land mask in
    let c = s lsr 26 in
    let s = c + (2 * ((a5 * a9) + (a6 * a8))) + (a7 * a7) in
    let t14 = s land mask in
    let c = s lsr 26 in
    let s = c + (2 * ((a6 * a9) + (a7 * a8))) in
    let t15 = s land mask in
    let c = s lsr 26 in
    let s = c + (2 * ((a7 * a9))) + (a8 * a8) in
    let t16 = s land mask in
    let c = s lsr 26 in
    let s = c + (2 * ((a8 * a9))) in
    let t17 = s land mask in
    let c = s lsr 26 in
    let s = c + (a9 * a9) in
    let t18 = s land mask in
    let c = s lsr 26 in
    let t19 = c in
    (* fold limbs 10..19 down: 2^260 == 2^36 + 15632 (mod p) *)
    let c = 0 in
    let s = c + t0 + (t10 * 15632) in
    let r0 = s land mask in
    let c = s lsr 26 in
    let s = c + t1 + (t11 * 15632) + (t10 lsl 10) in
    let r1 = s land mask in
    let c = s lsr 26 in
    let s = c + t2 + (t12 * 15632) + (t11 lsl 10) in
    let r2 = s land mask in
    let c = s lsr 26 in
    let s = c + t3 + (t13 * 15632) + (t12 lsl 10) in
    let r3 = s land mask in
    let c = s lsr 26 in
    let s = c + t4 + (t14 * 15632) + (t13 lsl 10) in
    let r4 = s land mask in
    let c = s lsr 26 in
    let s = c + t5 + (t15 * 15632) + (t14 lsl 10) in
    let r5 = s land mask in
    let c = s lsr 26 in
    let s = c + t6 + (t16 * 15632) + (t15 lsl 10) in
    let r6 = s land mask in
    let c = s lsr 26 in
    let s = c + t7 + (t17 * 15632) + (t16 lsl 10) in
    let r7 = s land mask in
    let c = s lsr 26 in
    let s = c + t8 + (t18 * 15632) + (t17 lsl 10) in
    let r8 = s land mask in
    let c = s lsr 26 in
    let s = c + t9 + (t19 * 15632) + (t18 lsl 10) in
    let r9 = s land mask in
    let c = s lsr 26 in
    let h = (t19 lsl 10) + c in
    (* second fold: h at weight 2^260 is < 2^38 *)
    let s = r0 + (h * 15632) in
    let r0 = s land mask in
    let s = (s lsr 26) + r1 + (h lsl 10) in
    let r1 = s land mask in
    let c = s lsr 26 in
    let s = c + r2 in
    let r2 = s land mask in
    let c = s lsr 26 in
    let s = c + r3 in
    let r3 = s land mask in
    let c = s lsr 26 in
    let s = c + r4 in
    let r4 = s land mask in
    let c = s lsr 26 in
    let s = c + r5 in
    let r5 = s land mask in
    let c = s lsr 26 in
    let s = c + r6 in
    let r6 = s land mask in
    let c = s lsr 26 in
    let s = c + r7 in
    let r7 = s land mask in
    let c = s lsr 26 in
    let s = c + r8 in
    let r8 = s land mask in
    let c = s lsr 26 in
    let s = c + r9 in
    let r9 = s land mask in
    let c = s lsr 26 in
    (* any carry past limb 9 re-enters at 2^260; normalize eats it *)
    Array.unsafe_set r 0 r0;
    Array.unsafe_set r 1 r1;
    Array.unsafe_set r 2 r2;
    Array.unsafe_set r 3 r3;
    Array.unsafe_set r 4 r4;
    Array.unsafe_set r 5 r5;
    Array.unsafe_set r 6 r6;
    Array.unsafe_set r 7 r7;
    Array.unsafe_set r 8 r8;
    Array.unsafe_set r 9 (r9 lor (c lsl 26));
    normalize r

  let sqr a =
    let r = Array.make nl 0 in
    sqr_into r a;
    r

  let add a b =
    let r = Array.make nl 0 in
    let c = ref 0 in
    for j = 0 to nl - 1 do
      let s = Array.unsafe_get a j + Array.unsafe_get b j + !c in
      Array.unsafe_set r j (s land mask);
      c := s lsr 26
    done;
    (* canonical inputs sum below 2^257: no carry escapes limb 9 *)
    normalize r;
    r

  (* --- lazy (non-canonical) arithmetic for the point formulas ---------

     A value of magnitude m has limbs < m·2^26 (limb 9 < m·2^22) and is
     congruent to the represented element without being reduced.  The
     caller tracks magnitudes: canonical values (every [mul]/[sqr]
     output) have m = 1, [add_nc_into] sums magnitudes, [sub_nc_into r m
     a b] adds 2m to a's and [mul_int_nc_into r k a] multiplies a's by k.
     Values may flow into [mul]/[sqr] only while m <= 8 (keeps comba
     columns below 2^62) and must pass through [normalize_nc] before
     being stored in a point or zero-tested.  This is what lets the
     Jacobian ladders skip ~10 full normalizations per group
     operation. *)

  let add_nc_into r a b =
    for j = 0 to nl - 1 do
      Array.unsafe_set r j (Array.unsafe_get a j + Array.unsafe_get b j)
    done

  (* a - b in one pass, where b has magnitude <= m; result mag(a)+2m *)
  let sub_nc_into r m a b =
    let m2 = 2 * m in
    for j = 0 to nl - 1 do
      Array.unsafe_set r j
        (Array.unsafe_get a j
        + (m2 * Array.unsafe_get p_limbs j)
        - Array.unsafe_get b j)
    done

  (* k·a for a small constant k; result mag k·mag(a) *)
  let mul_int_nc_into r k a =
    for j = 0 to nl - 1 do
      Array.unsafe_set r j (k * Array.unsafe_get a j)
    done

  (* Carry-propagate a non-canonical value in place, then reduce it to
     canonical form.  The carry past limb 9 re-enters at 2^260 exactly
     as in [mul_into]'s tail. *)
  let normalize_nc r =
    let c = ref 0 in
    for j = 0 to nl - 1 do
      let s = Array.unsafe_get r j + !c in
      Array.unsafe_set r j (s land mask);
      c := s lsr 26
    done;
    Array.unsafe_set r 9 (Array.unsafe_get r 9 lor (!c lsl 26));
    normalize r

  (* -a: 2p - a (magnitude 2) carried down to canonical form, so a = 0
     gives 0 *)
  let zero_limbs = zero ()

  let neg_into r a =
    sub_nc_into r 1 zero_limbs a;
    normalize_nc r

  let neg a =
    let r = Array.make nl 0 in
    neg_into r a;
    r

  let sub a b =
    let r = Array.make nl 0 in
    let borrow = ref 0 in
    for j = 0 to nl - 1 do
      let s = Array.unsafe_get a j - Array.unsafe_get b j - !borrow in
      if s < 0 then begin
        Array.unsafe_set r j (s + mask + 1);
        borrow := 1
      end
      else begin
        Array.unsafe_set r j s;
        borrow := 0
      end
    done;
    if !borrow <> 0 then begin
      (* a < b: add p back (a - b + p < p, so no carry out of limb 9) *)
      let c = ref 0 in
      for j = 0 to nl - 1 do
        let s = r.(j) + p_limbs.(j) + !c in
        r.(j) <- s land mask;
        c := s lsr 26
      done
    end;
    r

  let inv a =
    if is_zero a then invalid_arg "Secp256k1.fe_inv: zero";
    of_u256 (Uint256.inv_mod (to_u256 a) p)

  let inv_batch xs = batch_invert ~one:(one ()) ~mul ~inv xs
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

let infinity = { x = Fe.one (); y = Fe.one (); z = Fe.zero () }
let is_infinity pt = Fe.is_zero pt.z
let of_affine x y = { x = Fe.of_u256 x; y = Fe.of_u256 y; z = Fe.one () }
let generator = of_affine gx gy
let gx_fe = Fe.of_u256 gx
let gy_fe = Fe.of_u256 gy

let seven =
  let a = Fe.zero () in
  a.(0) <- 7;
  a

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

   The ladders below run hundreds of group operations per call.  Each
   call keeps its running point in one [acc]: three coordinate arrays
   updated in place and the temporaries of one doubling or addition,
   about 120 words allocated once per call.  An [acc] never outlives the
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
  t4 : Fe.t;
  t5 : Fe.t;
  ny : Fe.t; (* a negated table y, read by [add_into] but never written *)
}

let new_acc () =
  let f () = Array.make Fe.nl 0 in
  { ax = f (); ay = f (); az = f (); t0 = f (); t1 = f (); t2 = f ();
    t3 = f (); t4 = f (); t5 = f (); ny = f () }

let acc_of pt =
  let s = new_acc () in
  Array.blit pt.x 0 s.ax 0 Fe.nl;
  Array.blit pt.y 0 s.ay 0 Fe.nl;
  Array.blit pt.z 0 s.az 0 Fe.nl;
  s

let freeze s = if Fe.is_zero s.az then infinity else { x = s.ax; y = s.ay; z = s.az }
let set_infinity s = Array.fill s.az 0 Fe.nl 0

(* dbl-2009-l, a = 0: 2M + 5S, in place.  Formula-internal sums use the
   lazy magnitude-tracked ops (magnitudes in comments); stored
   coordinates are always canonical. *)
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
    Fe.normalize_nc s.az;
    (* d = 2((x + b)² - a - c): arg mag 2; 1 + 2 + 2 doubled = mag 10 *)
    Fe.add_nc_into d s.ax b;
    Fe.sqr_into d d;
    Fe.sub_nc_into d 1 d a;
    Fe.sub_nc_into d 1 d c;
    Fe.mul_int_nc_into d 2 d;
    Fe.normalize_nc d;
    (* e = 3a (mag 3), kept in a; f = e² *)
    Fe.mul_int_nc_into a 3 a;
    Fe.sqr_into b a;
    (* x3 = f - 2d *)
    Fe.mul_int_nc_into s.ax 2 d;
    Fe.sub_nc_into s.ax 2 b s.ax;
    Fe.normalize_nc s.ax;
    (* y3 = e(d - x3) - 8c: mag 3 into the product, then 1 + 16 *)
    Fe.sub_nc_into d 1 d s.ax;
    Fe.mul_into d a d;
    Fe.mul_int_nc_into c 8 c;
    Fe.sub_nc_into s.ay 8 d c;
    Fe.normalize_nc s.ay
  end

(* s += (x2, y2, z2) in place, where [z2 = None] means an affine operand
   (z = 1): general Jacobian addition is 11M + 5S, mixed addition 7M +
   4S.  The operand's arrays must not be ones this function writes (the
   accumulator's coordinates or t0..t5). *)
let add_into s x2 y2 z2 =
  if Fe.is_zero s.az then begin
    Array.blit x2 0 s.ax 0 Fe.nl;
    Array.blit y2 0 s.ay 0 Fe.nl;
    match z2 with
    | Some z2 -> Array.blit z2 0 s.az 0 Fe.nl
    | None ->
        Array.fill s.az 0 Fe.nl 0;
        s.az.(0) <- 1
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
    Fe.normalize_nc h;
    Fe.sub_nc_into r 1 r s1;
    Fe.normalize_nc r;
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
      Fe.normalize_nc s.ax;
      (* y3 = r(u1h2 - x3) - s1h3: arg mag 3 *)
      Fe.sub_nc_into h2 1 h2 s.ax;
      Fe.mul_into h2 r h2;
      Fe.sub_nc_into s.ay 1 h2 h;
      Fe.normalize_nc s.ay
    end
  end

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

(* --- wNAF scalar recoding ---------------------------------------------- *)

(* Width-w non-adjacent form: odd digits in (-2^(w-1), 2^(w-1)), at most
   one nonzero digit in any w consecutive positions.  Works on a mutable
   17×16-bit limb copy (one spare limb: adding back a negative digit can
   carry past 2^256). *)
let wnaf k w =
  let d = Array.make 17 0 in
  Array.blit (Uint256.limbs k) 0 d 0 16;
  let digits = Array.make 258 0 in
  let two_w = 1 lsl w in
  let half = 1 lsl (w - 1) in
  let hi = ref 16 in
  let norm () = while !hi >= 0 && d.(!hi) = 0 do decr hi done in
  norm ();
  let i = ref 0 in
  while !hi >= 0 do
    (if d.(0) land 1 = 1 then begin
       let u = d.(0) land (two_w - 1) in
       let u = if u >= half then u - two_w else u in
       digits.(!i) <- u;
       if u > 0 then begin
         let borrow = ref u and j = ref 0 in
         while !borrow <> 0 do
           let s = d.(!j) - !borrow in
           if s < 0 then begin
             d.(!j) <- s + 0x10000;
             borrow := 1
           end
           else begin
             d.(!j) <- s;
             borrow := 0
           end;
           incr j
         done
       end
       else begin
         let carry = ref (-u) and j = ref 0 in
         while !carry <> 0 do
           let s = d.(!j) + !carry in
           d.(!j) <- s land 0xFFFF;
           carry := s lsr 16;
           incr j
         done;
         (* the add-back can extend the value upward; limbs above the
            old hi were zero, so scanning forward is enough *)
         while !hi < 16 && d.(!hi + 1) <> 0 do
           incr hi
         done
       end
     end);
    (* d >>= 1 *)
    for j = 0 to !hi - 1 do
      d.(j) <- (d.(j) lsr 1) lor ((d.(j + 1) land 1) lsl 15)
    done;
    if !hi >= 0 then d.(!hi) <- d.(!hi) lsr 1;
    norm ();
    incr i
  done;
  (digits, !i)

(* --- precomputed tables ------------------------------------------------- *)

(* Batch-normalize an array of non-infinity Jacobian points to affine
   (x, y) limb pairs using one shared inversion. *)
let to_affine_batch pts =
  let zs = Array.map (fun pt -> pt.z) pts in
  let zinvs = Fe.inv_batch zs in
  Array.mapi
    (fun i pt ->
      let zi2 = Fe.sqr zinvs.(i) in
      (Fe.mul pt.x zi2, Fe.mul pt.y (Fe.mul zi2 zinvs.(i))))
    pts

(* Odd multiples P, 3P, ..., (2^(w-1)-1)P, normalized to affine. *)
let odd_multiples pt count =
  let p2 = double pt in
  let jac = Array.make count pt in
  for i = 1 to count - 1 do
    jac.(i) <- add jac.(i - 1) p2
  done;
  to_affine_batch jac

(* Map a table through the endomorphism (x, y) -> (beta*x, y); the
   resulting entries are the same odd multiples of lambda*P. *)
let beta_fe = Fe.of_u256 beta
let endo_table t = Array.map (fun (x, y) -> (Fe.mul beta_fe x, y)) t

(* Fixed-base tables for G and lambda*G: width-10 wNAF, 256 odd
   multiples each (~16 KB per table as affine pairs), built once at
   module initialization (single-threaded, so safe under domains).
   Only the u1·G stream of verification reads them; k·G uses the comb
   below. *)
let g_window = 10
let g_table = odd_multiples generator (1 lsl (g_window - 2))
let lg_table = endo_table g_table

(* Fixed-base comb for k·G: window i holds j·16^i·G for j = 1..15 as
   affine pairs at [comb.(15i + j - 1)], so k·G is one mixed addition per
   nonzero nibble of k — at most 64, and no doublings.  960 entries
   (~190 KB), built at module initialization from ~900 additions and 64
   doublings.  Eight windows at a time share one inversion, so the build
   holds at most 120 Jacobian points: one inversion for all 960 would
   leave ~1 MB of promoted garbage in the major heap of every process. *)
let comb_windows = 64
let comb_group = 8

let comb =
  let out = Array.make (comb_windows * 15) (gx_fe, gy_fe) in
  let base = ref generator in
  for g = 0 to (comb_windows / comb_group) - 1 do
    let jac = Array.make (15 * comb_group) !base in
    for w = 0 to comb_group - 1 do
      jac.(15 * w) <- !base;
      for j = 1 to 14 do
        jac.((15 * w) + j) <- add jac.((15 * w) + j - 1) !base
      done;
      base := double jac.((15 * w) + 7)
    done;
    Array.blit (to_affine_batch jac) 0 out (15 * comb_group * g)
      (15 * comb_group)
  done;
  out

(* Width for the tables of arbitrary points (8 odd multiples). *)
let pt_window = 5

(* A point's odd-multiples tables for itself and for lambda times
   itself; entry 0 of [t] is the point in affine form. *)
type table = { t : (Fe.t * Fe.t) array; lt : (Fe.t * Fe.t) array }

let precompute pt =
  if is_infinity pt then invalid_arg "Secp256k1.precompute: infinity";
  let t = odd_multiples pt (1 lsl (pt_window - 2)) in
  { t; lt = endo_table t }

let table_affine tb =
  let x, y = tb.t.(0) in
  (Fe.to_u256 x, Fe.to_u256 y)

let ladder_step s digit table =
  if digit > 0 then begin
    let x, y = table.(digit lsr 1) in
    add_into s x y None
  end
  else if digit < 0 then begin
    let x, y = table.((-digit) lsr 1) in
    Fe.neg_into s.ny y;
    add_into s x s.ny None
  end

let is_generator pt =
  Fe.is_one pt.z && Fe.equal pt.x gx_fe && Fe.equal pt.y gy_fe

let scalar_mul_base k =
  let l = Uint256.limbs (Scalar.reduce k) in
  let s = new_acc () in
  for i = 0 to comb_windows - 1 do
    let d = (l.(i lsr 2) lsr ((i land 3) lsl 2)) land 15 in
    if d <> 0 then begin
      let x, y = comb.((15 * i) + d - 1) in
      add_into s x y None
    end
  done;
  freeze s

(* Sum of k_i·P_i for [(k_i, w_i, table of P_i, table of lambda·P_i)]
   with every k_i < n: each scalar is GLV-split into two 128-bit wNAF
   digit streams, and all streams share one ~128-step doubling chain
   (Shamir's trick).  A negated subscalar flips its digit signs. *)
let ladder terms =
  let streams =
    Array.of_list
      (List.concat_map
         (fun (k, w, t, lt) ->
           let (n1, k1), (n2, k2) = Scalar.split k in
           [ (n1, wnaf k1 w, t); (n2, wnaf k2 w, lt) ])
         terms)
  in
  let len = Array.fold_left (fun m (_, (_, l), _) -> max m l) 0 streams in
  let s = new_acc () in
  for i = len - 1 downto 0 do
    double_into s;
    for j = 0 to Array.length streams - 1 do
      let neg, (d, _), t = streams.(j) in
      ladder_step s (if neg then -d.(i) else d.(i)) t
    done
  done;
  freeze s

let scalar_mul k pt =
  if is_generator pt then scalar_mul_base k
  else if is_infinity pt then infinity
  else begin
    let tb = precompute pt in
    ladder [ (Scalar.reduce k, pt_window, tb.t, tb.lt) ]
  end

let double_scalar_mul_base a b tb =
  ladder
    [
      (Scalar.reduce a, g_window, g_table, lg_table);
      (Scalar.reduce b, pt_window, tb.t, tb.lt);
    ]

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
