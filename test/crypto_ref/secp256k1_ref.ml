(* Reference secp256k1: the straightforward implementation the fast
   kernel in [Ledger_crypto.Secp256k1] is checked against.  Generic
   16-bit-limb field arithmetic through [Uint256.mul_wide], plain
   MSB-first double-and-add, and the naive two-table Shamir ladder.  The
   vector and differential suites compare fast against reference on
   every build; performance is irrelevant here. *)

open Ledger_crypto
module Uint256 = Uint256_ref

let p = Secp256k1.p

let p_minus_2 = fst (Uint256.sub p (Uint256_ref.of_int 2))

let gx =
  Uint256.of_hex
    "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"

let gy =
  Uint256.of_hex
    "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"

type fe = Uint256.t

let limb_mask = 0xFFFF
let limb_bits = 16

(* p = 2^256 - c with c = 2^32 + 977: fold the high half down repeatedly. *)
let reduce_wide w =
  let significant a =
    let rec go i =
      if i < 0 then 0 else if a.(i) <> 0 then i + 1 else go (i - 1)
    in
    go (Array.length a - 1)
  in
  let current = ref (Array.copy w) in
  let len = ref (significant !current) in
  while !len > 16 do
    let a = !current in
    let hi_len = !len - 16 in
    (* acc = lo + (hi << 32) + 977 * hi *)
    let acc = Array.make (max 16 (hi_len + 3) + 1) 0 in
    Array.blit a 0 acc 0 16;
    (* add hi * 977 at offset 0 *)
    let carry = ref 0 in
    for i = 0 to hi_len - 1 do
      let s = acc.(i) + (a.(16 + i) * 977) + !carry in
      acc.(i) <- s land limb_mask;
      carry := s lsr limb_bits
    done;
    let k = ref hi_len in
    while !carry <> 0 do
      let s = acc.(!k) + !carry in
      acc.(!k) <- s land limb_mask;
      carry := s lsr limb_bits;
      incr k
    done;
    (* add hi << 32 (two limbs) *)
    carry := 0;
    for i = 0 to hi_len - 1 do
      let s = acc.(i + 2) + a.(16 + i) + !carry in
      acc.(i + 2) <- s land limb_mask;
      carry := s lsr limb_bits
    done;
    let k = ref (hi_len + 2) in
    while !carry <> 0 do
      let s = acc.(!k) + !carry in
      acc.(!k) <- s land limb_mask;
      carry := s lsr limb_bits;
      incr k
    done;
    current := acc;
    len := significant acc
  done;
  let r = Array.make 16 0 in
  Array.blit !current 0 r 0 (min 16 (Array.length !current));
  let v = ref (Uint256.of_limbs r) in
  while Uint256.compare !v p >= 0 do
    v := fst (Uint256.sub !v p)
  done;
  !v

let fe_add a b = Uint256.add_mod a b p
let fe_sub a b = Uint256.sub_mod a b p
let fe_mul a b = reduce_wide (Uint256.mul_wide a b)
let fe_sqr a = fe_mul a a

let fe_pow b e =
  let result = ref Uint256.one and base = ref b in
  let nb = Uint256_ref.num_bits e in
  for i = 0 to nb - 1 do
    if Uint256_ref.bit e i then result := fe_mul !result !base;
    base := fe_sqr !base
  done;
  !result

let fe_inv a =
  if Uint256.is_zero a then invalid_arg "Secp256k1.fe_inv: zero";
  fe_pow a p_minus_2

let fe_dbl a = fe_add a a

type point = { x : fe; y : fe; z : fe }

let infinity = { x = Uint256.one; y = Uint256.one; z = Uint256.zero }
let is_infinity pt = Uint256.is_zero pt.z
let of_affine x y = { x; y; z = Uint256.one }
let generator = of_affine gx gy

let to_affine pt =
  if is_infinity pt then None
  else begin
    let zinv = fe_inv pt.z in
    let zinv2 = fe_sqr zinv in
    let x = fe_mul pt.x zinv2 in
    let y = fe_mul pt.y (fe_mul zinv2 zinv) in
    Some (x, y)
  end

let double pt =
  if is_infinity pt || Uint256.is_zero pt.y then infinity
  else begin
    let a = fe_sqr pt.x in
    let b = fe_sqr pt.y in
    let c = fe_sqr b in
    let d =
      let t = fe_sqr (fe_add pt.x b) in
      fe_dbl (fe_sub (fe_sub t a) c)
    in
    let e = fe_add (fe_dbl a) a in
    let f = fe_sqr e in
    let x3 = fe_sub f (fe_dbl d) in
    let y3 =
      let c8 = fe_dbl (fe_dbl (fe_dbl c)) in
      fe_sub (fe_mul e (fe_sub d x3)) c8
    in
    let z3 = fe_dbl (fe_mul pt.y pt.z) in
    { x = x3; y = y3; z = z3 }
  end

let add p1 p2 =
  if is_infinity p1 then p2
  else if is_infinity p2 then p1
  else begin
    let z1z1 = fe_sqr p1.z and z2z2 = fe_sqr p2.z in
    let u1 = fe_mul p1.x z2z2 and u2 = fe_mul p2.x z1z1 in
    let s1 = fe_mul p1.y (fe_mul z2z2 p2.z) in
    let s2 = fe_mul p2.y (fe_mul z1z1 p1.z) in
    let h = fe_sub u2 u1 and r = fe_sub s2 s1 in
    if Uint256.is_zero h then
      if Uint256.is_zero r then double p1 else infinity
    else begin
      let h2 = fe_sqr h in
      let h3 = fe_mul h h2 in
      let u1h2 = fe_mul u1 h2 in
      let x3 = fe_sub (fe_sub (fe_sqr r) h3) (fe_dbl u1h2) in
      let y3 = fe_sub (fe_mul r (fe_sub u1h2 x3)) (fe_mul s1 h3) in
      let z3 = fe_mul h (fe_mul p1.z p2.z) in
      { x = x3; y = y3; z = z3 }
    end
  end

let scalar_mul k pt =
  let nb = Uint256_ref.num_bits k in
  let acc = ref infinity in
  for i = nb - 1 downto 0 do
    acc := double !acc;
    if Uint256_ref.bit k i then acc := add !acc pt
  done;
  !acc

let double_scalar_mul a pa b pb =
  let sum = add pa pb in
  let nb = max (Uint256_ref.num_bits a) (Uint256_ref.num_bits b) in
  let acc = ref infinity in
  for i = nb - 1 downto 0 do
    acc := double !acc;
    (match (Uint256_ref.bit a i, Uint256_ref.bit b i) with
    | true, true -> acc := add !acc sum
    | true, false -> acc := add !acc pa
    | false, true -> acc := add !acc pb
    | false, false -> ())
  done;
  !acc
