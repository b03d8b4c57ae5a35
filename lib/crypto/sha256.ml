(* SHA-256 through the C kernel in hash_stubs.c, which compresses on the
   CPU's SHA extensions where it has them and on a portable C loop
   elsewhere.

   A context is one [bytes] holding the C state: eight state words, the
   64-byte block buffer and two counters.  One-shot digests never build
   one: the C code pads on its own stack and writes the 32-byte output
   allocated here, the only allocation of a digest.

   A [@@noalloc] call keeps its domain until it returns, and a
   stop-the-world collection asked for by any other domain waits for it.
   Input past [chunk] bytes therefore reaches the C code 64 KiB at a
   time from an OCaml loop, which polls between calls: an 8 MiB frame
   digest holds the other domains for one chunk (~50 µs on the SHA
   extensions, ~0.3 ms on the portable loop), not for the whole frame. *)

type ctx = bytes

external ctx_size : unit -> int = "ldb_sha256_ctx_size" [@@noalloc]
external reset : ctx -> unit = "ldb_sha256_init" [@@noalloc]

external update_raw : ctx -> bytes -> int -> int -> unit = "ldb_sha256_update"
  [@@noalloc]

external update_char : ctx -> char -> unit = "ldb_sha256_update_char"
  [@@noalloc]

external final_into : ctx -> bytes -> unit = "ldb_sha256_final" [@@noalloc]

external digest_into : bytes -> int -> int -> bytes -> unit
  = "ldb_sha256_digest"
  [@@noalloc]

external pair_into : string -> bytes -> bytes -> bytes -> unit
  = "ldb_sha256_pair"
  [@@noalloc]

external hardware : unit -> bool = "ldb_sha256_hardware" [@@noalloc]
external force_portable : bool -> unit = "ldb_sha256_force_portable" [@@noalloc]

let ctx_bytes = ctx_size ()
let chunk = 64 * 1024

let init () =
  let ctx = Bytes.create ctx_bytes in
  reset ctx;
  ctx

let check_sub what b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg what

let update_chunked ctx b off len =
  let off = ref off and len = ref len in
  while !len > chunk do
    update_raw ctx b !off chunk;
    off := !off + chunk;
    len := !len - chunk
  done;
  update_raw ctx b !off !len

let update_sub ctx b off len =
  check_sub "Sha256.update_sub" b off len;
  update_chunked ctx b off len

let update ctx b = update_chunked ctx b 0 (Bytes.length b)
let update_string ctx s = update ctx (Bytes.unsafe_of_string s)

let finalize ctx =
  let out = Bytes.create 32 in
  final_into ctx out;
  out

(* one C call up to [chunk] bytes; a longer input streams *)
let digest_unchecked b off len =
  let out = Bytes.create 32 in
  if len <= chunk then digest_into b off len out
  else begin
    let ctx = init () in
    update_chunked ctx b off len;
    final_into ctx out
  end;
  out

let digest_sub b off len =
  check_sub "Sha256.digest_sub" b off len;
  digest_unchecked b off len

let digest_bytes b = digest_unchecked b 0 (Bytes.length b)

let digest_string s = digest_bytes (Bytes.unsafe_of_string s)

let digest_pair prefix l r =
  let out = Bytes.create 32 in
  pair_into prefix l r out;
  out

let with_portable f =
  force_portable true;
  Fun.protect ~finally:(fun () -> force_portable false) f
