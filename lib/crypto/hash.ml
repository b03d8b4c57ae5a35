type t = bytes

let size = 32

let of_bytes b =
  if Bytes.length b <> size then invalid_arg "Hash.of_bytes: need 32 bytes";
  Bytes.copy b

let to_bytes t = Bytes.copy t

let of_hex s =
  if String.length s <> 64 then invalid_arg "Hash.of_hex: need 64 hex digits";
  let b = Bytes.create size in
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Hash.of_hex: bad digit"
  in
  for i = 0 to size - 1 do
    Bytes.set b i (Char.chr ((digit s.[2 * i] lsl 4) lor digit s.[(2 * i) + 1]))
  done;
  b

let hex_digits = "0123456789abcdef"

let to_hex t =
  let n = Bytes.length t in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (Bytes.unsafe_get t i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1)
      (String.unsafe_get hex_digits (c land 0xf))
  done;
  Bytes.unsafe_to_string out

let equal = Bytes.equal
let compare = Bytes.compare

let zero = Bytes.make size '\000'
let digest_bytes b = Sha256.digest_bytes b
let digest_sub b off len = Sha256.digest_sub b off len
let digest_string s = Sha256.digest_string s
let blit t dst pos = Bytes.blit t 0 dst pos size
let absorb ctx t = Sha256.update ctx t
let finalize ctx = Sha256.finalize ctx

(* Inner Merkle nodes: both children stream into the C digest where they
   lie, so a node allocates only its own 32 bytes. *)
let combine l r = Sha256.digest_pair "" l r
let combine_tagged tag l r = Sha256.digest_pair tag l r

let scatter key = Sha3.digest_string key

let short_hex t = String.sub (to_hex t) 0 8
let pp fmt t = Format.pp_print_string fmt (short_hex t)
