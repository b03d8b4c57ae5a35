open Ledger_crypto

let of_bytes b =
  let n = Bytes.length b in
  Array.init (2 * n) (fun i ->
      let byte = Char.code (Bytes.get b (i / 2)) in
      if i mod 2 = 0 then byte lsr 4 else byte land 0xF)

let of_hash h = of_bytes (Hash.to_bytes h)
let of_string s = of_bytes (Bytes.of_string s)

let common_prefix_length a ai b bi =
  let max_len = min (Array.length a - ai) (Array.length b - bi) in
  let rec go k = if k < max_len && a.(ai + k) = b.(bi + k) then go (k + 1) else k in
  go 0

let sub = Array.sub

let hex = "0123456789abcdef"
let to_string nibbles = String.init (Array.length nibbles) (fun i -> hex.[nibbles.(i)])

let absorb ctx nibbles =
  for i = 0 to Array.length nibbles - 1 do
    Sha256.update_char ctx hex.[nibbles.(i)]
  done
