(** Pure-OCaml SHA-256 (FIPS 180-4).

    Both a streaming context API and one-shot helpers are provided.  The
    implementation uses native [int] arithmetic with 32-bit masking, so it
    requires a 64-bit platform (as does the rest of this library). *)

type ctx
(** A mutable hashing context. *)

val init : unit -> ctx

val reset : ctx -> unit
(** Make the context that of {!init} again, so one context can hash
    many messages in turn. *)

val update : ctx -> bytes -> unit
(** Absorb the whole byte buffer. *)

val update_sub : ctx -> bytes -> int -> int -> unit
(** [update_sub ctx b off len] absorbs [len] bytes of [b] starting at
    [off]. *)

val update_string : ctx -> string -> unit

val update_char : ctx -> char -> unit
(** Absorb one byte. *)

val finalize : ctx -> bytes
(** Produce the 32-byte digest of everything absorbed so far.
    Non-destructive: the context stays valid, so callers may keep
    absorbing and finalize again to get running digests of a stream. *)

val digest_bytes : bytes -> bytes
(** One-shot digest of a byte buffer. *)

val digest_string : string -> bytes
(** One-shot digest of a string. *)
