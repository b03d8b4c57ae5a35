(* [Uint256] plus the arithmetic only the tests and the reference kernel
   use: hex printing, sums, differences, the wide product, the binary-GCD
   inverse the kernel's in-place scalar inversion is checked against,
   [int] conversions, bit access, shifts, long division and the modular
   operations built on it.  It [include]s the library module, so
   its [t] is [Ledger_crypto.Uint256.t] and a test can alias
   [module Uint256 = Uint256_ref]. *)

include Ledger_crypto.Uint256

let limb_count = 16
let limb_bits = 16
let limb_mask = 0xFFFF

let zero = of_limbs (Array.make limb_count 0)

let to_hex x =
  let x = limbs x in
  let buf = Buffer.create 64 in
  for i = limb_count - 1 downto 0 do
    Buffer.add_string buf (Printf.sprintf "%04x" x.(i))
  done;
  Buffer.contents buf

let is_odd x = (limbs x).(0) land 1 = 1

let equal a b = compare a b = 0

let add a b =
  let a = limbs a and b = limbs b in
  let r = Array.make limb_count 0 in
  let carry = ref 0 in
  for i = 0 to limb_count - 1 do
    let s = a.(i) + b.(i) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  (of_limbs r, !carry <> 0)

let sub a b =
  let a = limbs a and b = limbs b in
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
  (of_limbs r, !borrow <> 0)

let mul_wide a b =
  let a = limbs a and b = limbs b in
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

(* Binary extended GCD on five 52-bit limbs: packing quarters the limb
   count of the 16-bit representation, and the 11 spare bits in the top
   limb (moduli are < 2^256, so limb 4 is < 2^48) absorb the transient
   [x + m] overflow, so no carry word is needed anywhere.  The working
   values stay < 2m throughout. *)
let inv_mod x m =
  if not (is_odd m) then invalid_arg "Uint256.inv_mod: modulus must be odd";
  if (limbs m).(limb_count - 1) lsr (limb_bits - 1) = 0 then
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
  let m52 = pack (limbs m) in
  let u = pack (limbs x) and v = Array.copy m52 in
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
  of_limbs (unpack r)

let pp fmt x = Format.pp_print_string fmt (to_hex x)


let of_int n =
  if n < 0 then invalid_arg "Uint256.of_int: negative";
  let a = Array.make limb_count 0 in
  let rec fill i n =
    if n <> 0 && i < limb_count then begin
      a.(i) <- n land limb_mask;
      fill (i + 1) (n lsr limb_bits)
    end
  in
  fill 0 n;
  of_limbs a

let to_int_opt x =
  let x = limbs x in
  (* An OCaml int holds 62 usable bits here: accept values below 2^62. *)
  let rec high_zero i = i >= limb_count || (x.(i) = 0 && high_zero (i + 1)) in
  if not (high_zero 4) then None
  else begin
    let v =
      x.(0) lor (x.(1) lsl 16) lor (x.(2) lsl 32) lor (x.(3) lsl 48)
    in
    if v < 0 then None else Some v
  end

let num_bits x =
  let x = limbs x in
  let rec top i = if i < 0 then -1 else if x.(i) <> 0 then i else top (i - 1) in
  let i = top (limb_count - 1) in
  if i < 0 then 0
  else begin
    let v = x.(i) in
    let rec width w = if v lsr w = 0 then w else width (w + 1) in
    (i * limb_bits) + width 1
  end

let bit x i =
  if i >= limb_count * limb_bits then false
  else ((limbs x).(i / limb_bits) lsr (i mod limb_bits)) land 1 = 1

let shift_left x k =
  if k <= 0 then x
  else if k >= limb_count * limb_bits then zero
  else begin
    let x = limbs x in
    let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
    let r = Array.make limb_count 0 in
    for i = limb_count - 1 downto 0 do
      let src = i - limb_shift in
      if src >= 0 then begin
        let v = x.(src) lsl bit_shift in
        r.(i) <- r.(i) lor (v land limb_mask);
        if bit_shift > 0 && i + 1 < limb_count then
          r.(i + 1) <- r.(i + 1) lor (v lsr limb_bits)
      end
    done;
    of_limbs r
  end

let shift_right x k =
  if k <= 0 then x
  else if k >= limb_count * limb_bits then zero
  else begin
    let x = limbs x in
    let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
    let r = Array.make limb_count 0 in
    for i = 0 to limb_count - 1 do
      let src = i + limb_shift in
      if src < limb_count then begin
        let v = x.(src) lsr bit_shift in
        r.(i) <- r.(i) lor v;
        if bit_shift > 0 && src + 1 < limb_count then
          r.(i) <-
            r.(i) lor ((x.(src + 1) lsl (limb_bits - bit_shift)) land limb_mask)
      end
    done;
    of_limbs r
  end

(* Long division on raw limb arrays.  [bits] is the bit width of the
   dividend.  The remainder accumulator has one spare limb so that the
   shift-then-compare step cannot overflow. *)
let div_mod_raw dividend bits m =
  let qlen = (bits + limb_bits - 1) / limb_bits in
  let q = Array.make (max qlen 1) 0 in
  let rlen = limb_count + 1 in
  let r = Array.make rlen 0 in
  let r_ge_m () =
    if r.(limb_count) <> 0 then true
    else begin
      let rec go i =
        if i < 0 then true
        else if r.(i) <> m.(i) then r.(i) > m.(i)
        else go (i - 1)
      in
      go (limb_count - 1)
    end
  in
  let r_sub_m () =
    let borrow = ref 0 in
    for i = 0 to limb_count - 1 do
      let s = r.(i) - m.(i) - !borrow in
      if s < 0 then begin
        r.(i) <- s + (limb_mask + 1);
        borrow := 1
      end else begin
        r.(i) <- s;
        borrow := 0
      end
    done;
    r.(limb_count) <- r.(limb_count) - !borrow
  in
  for i = bits - 1 downto 0 do
    (* r := (r << 1) | bit i of dividend *)
    let carry = ref ((dividend.(i / limb_bits) lsr (i mod limb_bits)) land 1) in
    for j = 0 to rlen - 1 do
      let v = (r.(j) lsl 1) lor !carry in
      r.(j) <- v land limb_mask;
      carry := v lsr limb_bits
    done;
    if r_ge_m () then begin
      r_sub_m ();
      q.(i / limb_bits) <- q.(i / limb_bits) lor (1 lsl (i mod limb_bits))
    end
  done;
  (q, Array.sub r 0 limb_count)

let div_mod a m =
  if is_zero m then raise Division_by_zero;
  let bits = num_bits a in
  if bits = 0 then (zero, zero)
  else if compare a m < 0 then (zero, a)
  else begin
    let q, r = div_mod_raw (limbs a) bits (limbs m) in
    let qt = Array.make limb_count 0 in
    Array.blit q 0 qt 0 (min (Array.length q) limb_count);
    (of_limbs qt, of_limbs r)
  end

let mod_wide w m =
  if is_zero m then raise Division_by_zero;
  let bits =
    let rec top i = if i < 0 then 0 else if w.(i) <> 0 then i else top (i - 1) in
    let i = top (Array.length w - 1) in
    if i = 0 && w.(0) = 0 then 0
    else begin
      let v = w.(i) in
      let rec width k = if v lsr k = 0 then k else width (k + 1) in
      (i * limb_bits) + width 1
    end
  in
  if bits = 0 then zero
  else
    let _, r = div_mod_raw w bits (limbs m) in
    of_limbs r

let mul_mod a b m = mod_wide (mul_wide a b) m

let pow_mod b e m =
  let result = ref (snd (div_mod one m)) in
  let base = ref (snd (div_mod b m)) in
  let nb = num_bits e in
  for i = 0 to nb - 1 do
    if bit e i then result := mul_mod !result !base m;
    base := mul_mod !base !base m
  done;
  !result

