(* A prepared key is the SHA-256 state after its ipad block and after its
   opad block, 32 bytes each, compressed once by [keyed]: every tag under
   it resumes from them and compresses only the message and the two
   final blocks.  Batch signing derives every nonce under one key. *)
type keyed = bytes

external key_into : keyed -> string -> unit = "ldb_hmac_sha256_key"
  [@@noalloc]

external mac_into : keyed -> bytes -> int -> int -> bytes -> unit
  = "ldb_hmac_sha256"
  [@@noalloc]

let keyed key =
  let k = Bytes.create 64 in
  key_into k (Bytes.unsafe_to_string key);
  k

let mac_keyed k msg =
  let out = Bytes.create 32 in
  mac_into k msg 0 (Bytes.length msg) out;
  out

let mac ~key msg = mac_keyed (keyed key) msg

let mac_string ~key msg =
  mac ~key:(Bytes.of_string key) (Bytes.of_string msg)
