(* 256-bit unsigned integers as 16 little-endian limbs of 16 bits.
   Limb products fit in 32 bits and column sums in ~36 bits, so all
   intermediate values stay well inside OCaml's 63-bit native int. *)

let limb_count = 16
let limb_bits = 16
let limb_mask = 0xFFFF

type t = int array

let zero = Array.make limb_count 0
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

let to_hex x =
  let buf = Buffer.create 64 in
  for i = limb_count - 1 downto 0 do
    Buffer.add_string buf (Printf.sprintf "%04x" x.(i))
  done;
  Buffer.contents buf

let is_zero x =
  let rec go i = i >= limb_count || (x.(i) = 0 && go (i + 1)) in
  go 0

let is_odd x = x.(0) land 1 = 1

let equal a b =
  let rec go i = i >= limb_count || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let compare a b =
  let rec go i =
    if i < 0 then 0
    else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
    else go (i - 1)
  in
  go (limb_count - 1)

let add a b =
  let r = Array.make limb_count 0 in
  let carry = ref 0 in
  for i = 0 to limb_count - 1 do
    let s = a.(i) + b.(i) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  (r, !carry <> 0)

let sub a b =
  let r = Array.make limb_count 0 in
  let borrow = ref 0 in
  for i = 0 to limb_count - 1 do
    let s = a.(i) - b.(i) - !borrow in
    if s < 0 then begin
      r.(i) <- s + (limb_mask + 1);
      borrow := 1
    end else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  (r, !borrow <> 0)

let mul_wide a b =
  let r = Array.make (2 * limb_count) 0 in
  for i = 0 to limb_count - 1 do
    if a.(i) <> 0 then begin
      let carry = ref 0 in
      for j = 0 to limb_count - 1 do
        let s = r.(i + j) + (a.(i) * b.(j)) + !carry in
        r.(i + j) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      let k = ref (i + limb_count) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land limb_mask;
        carry := s lsr limb_bits;
        incr k
      done
    end
  done;
  r

let add_mod a b m =
  let s, carry = add a b in
  if carry || compare s m >= 0 then fst (sub s m) else s

let sub_mod a b m =
  let d, borrow = sub a b in
  if borrow then fst (add d m) else d

(* Binary extended GCD inversion for odd modulus.  Works on local mutable
   limb arrays with an explicit spare carry so that (x + m) / 2 is exact. *)
(* Binary extended GCD on five 52-bit limbs: packing quarters the limb
   count of the 16-bit representation, and the 11 spare bits in the top
   limb (moduli are < 2^256, so limb 4 is < 2^48) absorb the transient
   [x + m] overflow, so no carry word is needed anywhere.  The working
   values stay < 2m throughout. *)
let inv_mod x m =
  if not (is_odd m) then invalid_arg "Uint256.inv_mod: modulus must be odd";
  if m.(limb_count - 1) lsr (limb_bits - 1) = 0 then
    invalid_arg "Uint256.inv_mod: modulus below 2^255";
  (* x < 2^256 <= 2m, so one subtraction reduces it *)
  let x = if compare x m >= 0 then fst (sub x m) else x in
  if is_zero x then invalid_arg "Uint256.inv_mod: zero has no inverse";
  let gl = 5 and gb = 52 in
  let gmask = (1 lsl 52) - 1 in
  (* gather bits [52j, 52j+52) of a 16x16 value; 52j mod 16 is at most
     12, so four source limbs always suffice *)
  let pack a =
    let r = Array.make gl 0 in
    for j = 0 to gl - 1 do
      let b = gb * j in
      let i = b lsr 4 and sh = b land 15 in
      let v = ref (a.(i) lsr sh) in
      if i + 1 < 16 then v := !v lor (a.(i + 1) lsl (16 - sh));
      if i + 2 < 16 then v := !v lor (a.(i + 2) lsl (32 - sh));
      if i + 3 < 16 then v := !v lor (a.(i + 3) lsl (48 - sh));
      r.(j) <- !v land gmask
    done;
    r
  in
  let unpack a =
    let r = Array.make limb_count 0 in
    for i = 0 to limb_count - 1 do
      let b = i * 16 in
      let j = b / gb and sh = b mod gb in
      let v = ref (a.(j) lsr sh) in
      if j + 1 < gl then v := !v lor (a.(j + 1) lsl (gb - sh));
      r.(i) <- !v land limb_mask
    done;
    r
  in
  let m52 = pack m in
  let u = pack x and v = Array.copy m52 in
  let x1 = Array.make gl 0 and x2 = Array.make gl 0 in
  x1.(0) <- 1;
  let arr_is_one a =
    a.(0) = 1 && a.(1) = 0 && a.(2) = 0 && a.(3) = 0 && a.(4) = 0
  in
  let arr_is_zero a =
    a.(0) = 0 && a.(1) = 0 && a.(2) = 0 && a.(3) = 0 && a.(4) = 0
  in
  let arr_even a = a.(0) land 1 = 0 in
  let arr_ge a b =
    let rec go i =
      if i < 0 then true else if a.(i) <> b.(i) then a.(i) > b.(i) else go (i - 1)
    in
    go (gl - 1)
  in
  let arr_sub_inplace a b =
    let borrow = ref 0 in
    for i = 0 to gl - 1 do
      let s = a.(i) - b.(i) - !borrow in
      if s < 0 then begin
        a.(i) <- s + gmask + 1;
        borrow := 1
      end
      else begin
        a.(i) <- s;
        borrow := 0
      end
    done
  in
  let arr_half a =
    for i = 0 to gl - 2 do
      a.(i) <- (a.(i) lsr 1) lor ((a.(i + 1) land 1) lsl (gb - 1))
    done;
    a.(gl - 1) <- a.(gl - 1) lsr 1
  in
  let arr_add_m a =
    let carry = ref 0 in
    for i = 0 to gl - 1 do
      let s = a.(i) + m52.(i) + !carry in
      a.(i) <- s land gmask;
      carry := s lsr gb
    done
  in
  let half_mod a =
    if not (arr_even a) then arr_add_m a;
    arr_half a
  in
  let sub_mod_inplace a b =
    (* a := (a - b) mod m; a + m fits the headroom of limb 4 *)
    if not (arr_ge a b) then arr_add_m a;
    arr_sub_inplace a b
  in
  while not (arr_is_one u) && not (arr_is_one v) do
    while arr_even u do
      arr_half u;
      half_mod x1
    done;
    while arr_even v do
      arr_half v;
      half_mod x2
    done;
    if arr_ge u v then begin
      arr_sub_inplace u v;
      sub_mod_inplace x1 x2
    end
    else begin
      arr_sub_inplace v u;
      sub_mod_inplace x2 x1
    end;
    if arr_is_zero u || arr_is_zero v then
      invalid_arg "Uint256.inv_mod: not coprime"
  done;
  let r = if arr_is_one u then x1 else x2 in
  unpack r

let limbs x = x
let of_limbs a =
  if Array.length a <> limb_count then invalid_arg "Uint256.of_limbs";
  Array.copy a

let pp fmt x = Format.pp_print_string fmt (to_hex x)
