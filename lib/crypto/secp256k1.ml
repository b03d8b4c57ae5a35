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

(* --- the field, in C ------------------------------------------------------

   A field element is five little-endian 52-bit limbs (the top one 48),
   each a native 64-bit word, in a 40-byte [Bytes]; the arithmetic and
   the group law below live in [secp256k1_stubs.c], called as [@@noalloc]
   externals.  Every operation takes operands of magnitude at most 8
   (limbs 0..3 at most 16·(2^52 − 1), limb 4 at most 16·(2^48 − 1)) and
   writes a *weak* result: magnitude 1 and a value below 2p, congruent
   to the element but possibly p too big.  Every stored coordinate,
   table entry and accumulator value is weak.  Only [to_limbs_into]
   reduces fully, where a value leaves the kernel; [is_zero] and [equal]
   test congruence.  Each [_into] form reads its operands before it
   writes [r], so [r] may alias an operand.  Only the point formulas
   write into field elements, and only into scratch allocated for one
   call: a value that has left that call as part of a point or table is
   never mutated again, so values can be shared freely across domains. *)

module Fe = struct
  type t = Bytes.t

  let size = 40

  external mul_into : t -> t -> t -> unit = "ldb_fe_mul" [@@noalloc]
  external sqr_into : t -> t -> unit = "ldb_fe_sqr" [@@noalloc]
  external add_into : t -> t -> t -> unit = "ldb_fe_add" [@@noalloc]
  external sub_into : t -> t -> t -> unit = "ldb_fe_sub" [@@noalloc]
  external neg_into : t -> t -> unit = "ldb_fe_neg" [@@noalloc]
  external is_zero : t -> bool = "ldb_fe_is_zero" [@@noalloc]
  external equal : t -> t -> bool = "ldb_fe_equal" [@@noalloc]

  (* r := a⁻¹; a must not be zero *)
  external inv_raw : t -> t -> unit = "ldb_fe_inv" [@@noalloc]

  (* r := the value of sixteen little-endian 16-bit limbs *)
  external of_limbs_into : t -> int array -> unit = "ldb_fe_of_limbs" [@@noalloc]

  (* l := the canonical value (< p) as sixteen 16-bit limbs *)
  external to_limbs_into : int array -> t -> unit = "ldb_fe_to_limbs" [@@noalloc]

  let create () = Bytes.make size '\000'

  let inv_into r a =
    if is_zero a then invalid_arg "Secp256k1.fe_inv: zero";
    inv_raw r a

  let of_u256 x =
    let r = create () in
    of_limbs_into r (Uint256.limbs x);
    r

  let one_fe = of_u256 Uint256.one

  let to_u256 a =
    let l = Array.make 16 0 in
    to_limbs_into l a;
    Uint256.of_limbs l

  let lift2 f a b =
    let r = create () in
    f r a b;
    r

  let mul = lift2 mul_into
  let add = lift2 add_into
  let sub = lift2 sub_into

  let sqr a =
    let r = create () in
    sqr_into r a;
    r
end

(* --- scalar arithmetic modulo the group order n -------------------------

   A scalar being computed is sixteen little-endian 16-bit limbs in an
   [int array].  As with the field, every operation writes into a
   scalar its caller owns ([_into] forms, the destination may be an
   input).  Sums, comparisons and encodings are OCaml; the product mod n,
   the GLV rounding product and the inversion are C
   ([secp256k1_stubs.c]): a product folds hi·2^256 + lo into lo +
   hi·(2^256 − n) until it fits 256 bits, then subtracts n at most once
   (2^256 < 2n).  A scalar leaves the kernel only as a copy ([to_u256],
   encoded bytes), so one that may still be written never crosses a
   call boundary. *)

module Scalar = struct
  type t = int array

  (* r := a·b mod n *)
  external mul_into : t -> t -> t -> unit = "ldb_scalar_mul" [@@noalloc]

  (* c := round(k·g / 2^384) *)
  external mul_shift_384 : t -> t -> t -> unit = "ldb_scalar_mul_shift_384"
    [@@noalloc]

  (* r := x⁻¹ mod n for x in [1, n) *)
  external inv_raw : t -> t -> unit = "ldb_scalar_inv" [@@noalloc]

  let n = n
  let nl = 16
  let mask = 0xFFFF
  let create () = Array.make nl 0
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

  let inv_into r x =
    if is_zero x then invalid_arg "Secp256k1.Scalar.inv: zero";
    inv_raw r x

  (* ws.(i) := xs.(i)⁻¹ for i < count, every xs.(i) in [1, n), with one
     inversion and 3(count − 1) products (Montgomery's trick); ws holds
     the prefix products on the way, so no element of it may be one of
     xs *)
  let inv_batch_into ws xs count =
    if count > 0 then begin
      Array.blit xs.(0) 0 ws.(0) 0 nl;
      for i = 1 to count - 1 do
        mul_into ws.(i) ws.(i - 1) xs.(i)
      done;
      let acc = create () in
      inv_into acc ws.(count - 1);
      for i = count - 1 downto 1 do
        mul_into ws.(i) acc ws.(i - 1);
        mul_into acc acc xs.(i)
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

  (* v := n − v when v > n/2; whether it did *)
  let norm v = if geq half_n v then false else (ignore (sub_raw v n_l v); true)

  (* [split c1 c2 k k1 k2] (k < n) writes |k1| and |k2| into [k1] and
     [k2], with k = ±k1 ± k2·λ (mod n) and both at most 2^128; [c1] and
     [c2] are scratch.  Bit 0 of the result is set when k1 is negated,
     bit 1 when k2 is. *)
  let split c1 c2 k k1 k2 =
    mul_shift_384 c1 k g1;
    mul_shift_384 c2 k g2;
    mul_into k2 c1 minus_b1;
    mul_into c1 c2 minus_b2;
    add_into k2 k2 c1;
    mul_into c1 k2 lambda;
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
    mul_into r (of_u256 a) (of_u256 b);
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

let infinity = { x = Fe.one_fe; y = Fe.one_fe; z = Fe.create () }
let is_infinity pt = Fe.is_zero pt.z
let of_affine x y = { x = Fe.of_u256 x; y = Fe.of_u256 y; z = Fe.one_fe }
let of_jacobian x y z = { x = Fe.of_u256 x; y = Fe.of_u256 y; z = Fe.of_u256 z }
let generator = of_affine gx gy
let gx_fe = Fe.of_u256 gx
let gy_fe = Fe.of_u256 gy
let seven = Fe.of_u256 (Uint256.of_hex "07")
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
    let zinv = Fe.create () in
    Fe.inv_into zinv pt.z;
    let zinv2 = Fe.sqr zinv in
    let x = Fe.mul pt.x zinv2 in
    let y = Fe.mul pt.y (Fe.mul zinv2 zinv) in
    Some (Fe.to_u256 x, Fe.to_u256 y)
  end

let negate pt =
  if is_infinity pt then pt
  else begin
    let y = Fe.create () in
    Fe.neg_into y pt.y;
    { pt with y }
  end

(* --- the group law over a mutable accumulator ---------------------------

   The ladders and table builds below run dozens to thousands of group
   operations per call.  Each call keeps its running point in one
   [acc]: three coordinate elements updated in place, a Jacobian
   operand (ox, oy, oz) and four temporaries for the batch inversions
   and comparisons written here, 81 words allocated once per call.  The
   doubling and the two additions are C ([secp256k1_stubs.c]), which
   reads the first six fields, so their order is fixed.  An [acc] never
   outlives the call that made it and is never shared.  A module-level
   buffer would be shared by every domain (pooled π_c verifies and
   read-path π_s signs run at once), and a [Domain.DLS] slot by every
   systhread of one domain, which the runtime may switch between
   mid-ladder.  [freeze] hands the coordinates over as an immutable
   [point], after which the [acc] is dropped.  An acc whose z is zero is
   the point at infinity, whatever its x and y. *)

type acc = {
  ax : Fe.t;
  ay : Fe.t;
  az : Fe.t;
  ox : Fe.t;
  oy : Fe.t;
  oz : Fe.t;
  t0 : Fe.t;
  t1 : Fe.t;
  t2 : Fe.t;
  t3 : Fe.t;
}

(* s := 2s (dbl-2009-l: 2M + 5S) *)
external double_into : acc -> unit = "ldb_gej_double" [@@noalloc]

(* s += the operand (11M + 5S); equal points double, opposite ones give
   infinity *)
external add_operand : acc -> unit = "ldb_gej_add" [@@noalloc]

(* [add_affine s xs xoff ys yoff negative]: s += ±(the affine point whose
   x is at byte [xoff] of [xs] and whose y is at byte [yoff] of [ys]),
   by mixed addition (7M + 4S) *)
external add_affine : acc -> Bytes.t -> int -> Bytes.t -> int -> bool -> unit
  = "ldb_gej_add_ge_byte" "ldb_gej_add_ge"
  [@@noalloc]

let new_acc () =
  let f = Fe.create in
  { ax = f (); ay = f (); az = f (); ox = f (); oy = f (); oz = f ();
    t0 = f (); t1 = f (); t2 = f (); t3 = f () }

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

let add_mixed pt x y ~negative =
  let s = acc_of pt in
  Fe.of_limbs_into s.t0 (Uint256.limbs x);
  Fe.of_limbs_into s.t1 (Uint256.limbs y);
  add_affine s s.t0 0 s.t1 0 negative;
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
   at byte 80·i and its y at byte 80·i + 40, each a weak field element,
   10 words a point.  Table builds and batch signing first write
   Jacobian points the same way, X, Y and Z of entry i at byte 120·i,
   straight from the accumulator, and convert them in place. *)

let entry = 2 * Fe.size
let jentry = 3 * Fe.size

type points = Bytes.t

(* One points buffer per domain, reused by every batch sign and key
   table on it: a buffer for 32 points is 3 840 bytes, which the
   runtime would put straight on the major heap at every call.
   Systhreads of one domain share the slot, and the runtime may switch
   between them mid-batch, so the busy flag hands it to one caller at a
   time and whoever finds it set takes a fresh buffer.  A buffer grown
   past [points_cap] for one batch is dropped after it. *)
type points_scratch = { mutable buf : Bytes.t; busy : bool Atomic.t }

(* a 256-item batch takes 30 720 bytes; G's table, built once, 61 440 *)
let points_cap = 32 * 1024

let points_key =
  Domain.DLS.new_key (fun () -> { buf = Bytes.empty; busy = Atomic.make false })

let with_points count f =
  let need = count * jentry in
  let sc = Domain.DLS.get points_key in
  if Atomic.compare_and_set sc.busy false true then begin
    if Bytes.length sc.buf < need then sc.buf <- Bytes.create need;
    let release () =
      if Bytes.length sc.buf > points_cap then sc.buf <- Bytes.empty;
      Atomic.set sc.busy false
    in
    match f sc.buf with
    | v ->
        release ();
        v
    | exception e ->
        release ();
        raise e
  end
  else f (Bytes.create need)

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
   [pre].  Uses t0, t1 and t2. *)
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
    Fe.inv_into s.t2 s.t0;
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
   2^(w-2), in [xy]; [lx] holds β·x of every entry, 5 words a point,
   since (β·x, y) is the same multiple of λP (resp. λ·2^64·P). *)
type table = { w : int; count : int; xy : Bytes.t; lx : Bytes.t }

let beta_fe = Fe.of_u256 beta

(* The table of the finite point in [s], which it overwrites: every
   multiple is written straight into one flat Jacobian buffer and
   converted with one shared inversion, [lx] holding the prefix
   products until it is filled. *)
let make_table w s =
  let count = 1 lsl (w - 2) in
  with_points (2 * count) @@ fun jac ->
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
  let e = Fe.create () in
  for k = 0 to 1 do
    Bytes.blit tb.xy (k * Fe.size) e 0 Fe.size;
    Fe.to_limbs_into l e;
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

(* Everything a ladder or a batch of them writes: the accumulator, two
   scalar temporaries, the (up to two)
   scalars of one ladder, their GLV halves and each half's wNAF string.
   One per call, made once for all the items of a batch, never shared;
   about 390 words. *)
type ctx = {
  s : acc;
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
        lor (Scalar.split c.c1 c.c2 c.ks.(h / 2) c.halves.(h)
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
  Fe.equal s.t1 s.ax

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
  Fe.equal pt.z Fe.one_fe && Fe.equal pt.x gx_fe && Fe.equal pt.y gy_fe

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
    Fe.to_limbs_into rs.(i) s.t1;
    Scalar.reduce_into rs.(i) rs.(i)
  done

(* --- public field helpers (Uint256 views over the fast kernel) ---------- *)

let fe_add a b = Fe.to_u256 (Fe.add (Fe.of_u256 a) (Fe.of_u256 b))
let fe_sub a b = Fe.to_u256 (Fe.sub (Fe.of_u256 a) (Fe.of_u256 b))
let fe_mul a b = Fe.to_u256 (Fe.mul (Fe.of_u256 a) (Fe.of_u256 b))
let fe_sqr a = Fe.to_u256 (Fe.sqr (Fe.of_u256 a))
let fe_inv a =
  let r = Fe.create () in
  Fe.inv_into r (Fe.of_u256 a);
  Fe.to_u256 r

let fe_inv_batch xs =
  let any_zero = Array.exists Uint256.is_zero xs in
  if any_zero then invalid_arg "Secp256k1.fe_inv_batch: zero element";
  let count = Array.length xs in
  let buf = Bytes.create (count * Fe.size) in
  Array.iteri (fun i x -> Bytes.blit (Fe.of_u256 x) 0 buf (i * Fe.size) Fe.size) xs;
  inv_batch_into (new_acc ()) buf 0 Fe.size count
    (Bytes.create (count * Fe.size)) 0 Fe.size;
  Array.init count (fun i -> Fe.to_u256 (Bytes.sub buf (i * Fe.size) Fe.size))
