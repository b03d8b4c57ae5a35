open Ledger_crypto

let max_length = 4096
let hex = "0123456789abcdef"

let of_string s =
  String.init (2 * String.length s) (fun i ->
      let byte = Char.code (String.unsafe_get s (i / 2)) in
      hex.[if i land 1 = 0 then byte lsr 4 else byte land 0xF])

let of_hash = Hash.to_hex
let digit v = hex.[v]

let value = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | _ -> -1

let get p i = value p.[i]
let is_path p = String.for_all (fun c -> value c >= 0) p

let common_prefix_length a ai b bi =
  let max_len = min (String.length a - ai) (String.length b - bi) in
  let rec go k =
    if k < max_len && String.unsafe_get a (ai + k) = String.unsafe_get b (bi + k)
    then go (k + 1)
    else k
  in
  go 0
