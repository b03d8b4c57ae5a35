(* SHA3-256 through the C kernel in hash_stubs.c: Keccak-f[1600] on a
   state held on the C stack, absorbing the message where it lies. *)

external digest_into : bytes -> int -> int -> bytes -> unit = "ldb_sha3_256"
  [@@noalloc]

let digest_string s =
  let out = Bytes.create 32 in
  digest_into (Bytes.unsafe_of_string s) 0 (String.length s) out;
  out
