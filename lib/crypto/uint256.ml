(* 256-bit unsigned integers as 16 little-endian limbs of 16 bits: the
   immutable boundary form of keys, curve constants and test values.
   The arithmetic on them runs in place in [Secp256k1]; the rest lives
   in the tests' [Uint256_ref]. *)

let limb_count = 16

type t = int array

let one =
  let a = Array.make limb_count 0 in
  a.(0) <- 1;
  a

let of_bytes_be b =
  let len = Bytes.length b in
  if len > 32 then invalid_arg "Uint256.of_bytes_be: more than 32 bytes";
  let a = Array.make limb_count 0 in
  for i = 0 to len - 1 do
    (* byte i (from the most significant end) contributes to bit position *)
    let byte = Char.code (Bytes.get b (len - 1 - i)) in
    let limb = i / 2 in
    let shift = (i mod 2) * 8 in
    a.(limb) <- a.(limb) lor (byte lsl shift)
  done;
  a

let to_bytes_be x =
  let b = Bytes.create 32 in
  for i = 0 to 31 do
    let limb = i / 2 in
    let shift = (i mod 2) * 8 in
    Bytes.set b (31 - i) (Char.chr ((x.(limb) lsr shift) land 0xFF))
  done;
  b

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Uint256.of_hex: bad digit"

let of_hex s =
  let n = String.length s in
  if n = 0 || n > 64 then invalid_arg "Uint256.of_hex: bad length";
  let a = Array.make limb_count 0 in
  for i = 0 to n - 1 do
    (* digit i counted from the least significant end *)
    let d = hex_digit s.[n - 1 - i] in
    let limb = i / 4 in
    let shift = (i mod 4) * 4 in
    a.(limb) <- a.(limb) lor (d lsl shift)
  done;
  a

let is_zero x =
  let rec go i = i >= limb_count || (x.(i) = 0 && go (i + 1)) in
  go 0

let compare a b =
  let rec go i =
    if i < 0 then 0
    else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
    else go (i - 1)
  in
  go (limb_count - 1)

let limbs x = x
let of_limbs a =
  if Array.length a <> limb_count then invalid_arg "Uint256.of_limbs";
  Array.copy a
