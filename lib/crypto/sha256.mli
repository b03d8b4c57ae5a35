(** SHA-256 (FIPS 180-4), compressed in C: on the x86-64 SHA extensions
    when the CPU reports them, on a portable C loop everywhere else.
    The CPU alone picks the loop, once, when the program loads; both
    give the same digests.

    Both a streaming context API and one-shot helpers are provided.  A
    one-shot digest allocates only its 32-byte output, and every
    function here is safe to call from any number of domains and
    threads at once (a context belongs to one caller at a time). *)

type ctx
(** A mutable hashing context: the running state and a 64-byte block
    buffer. *)

val init : unit -> ctx

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

val digest_sub : bytes -> int -> int -> bytes
(** [digest_sub b off len] is the digest of [len] bytes of [b] from
    [off], hashed where they lie. *)

val digest_string : string -> bytes
(** One-shot digest of a string. *)

val digest_pair : string -> bytes -> bytes -> bytes
(** [digest_pair prefix l r] is the digest of [prefix ∥ l ∥ r], without
    building the concatenation. *)

(** {2 Test-facing} *)

val hardware : unit -> bool
(** Whether this CPU compresses on the SHA extensions. *)

val with_portable : (unit -> 'a) -> 'a
(** [with_portable f] runs [f] with every SHA-256 compression in the
    process on the portable loop, so tests can check that loop on a CPU
    that would never run it.  Digests do not change; only their speed
    does. *)
