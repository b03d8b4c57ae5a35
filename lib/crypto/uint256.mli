(** Fixed-width 256-bit unsigned integers: the immutable form in which
    keys, curve constants and test values cross the crypto kernel's
    boundary.

    Values are represented as sixteen 16-bit limbs stored little-endian in an
    [int array].  Arithmetic on them runs in place, on the kernel's own
    scratch, in {!Secp256k1.Scalar}; sums, products and the modular
    operations the tests need live in the test library's [Uint256_ref]. *)

type t
(** A 256-bit unsigned integer.  Values are immutable from the outside:
    every exported operation returns a fresh value or reads one. *)

(** {1 Constants and conversions} *)

val one : t

val of_bytes_be : bytes -> t
(** [of_bytes_be b] interprets up to 32 big-endian bytes.
    @raise Invalid_argument if [Bytes.length b > 32]. *)

val to_bytes_be : t -> bytes
(** 32-byte big-endian encoding. *)

val of_hex : string -> t
(** [of_hex s] parses a hexadecimal string (no "0x" prefix, at most 64
    digits).  @raise Invalid_argument on bad input. *)

(** {1 Predicates and comparison} *)

val is_zero : t -> bool
val compare : t -> t -> int

(** {1 Limbs (read by Secp256k1's in-place arithmetic)} *)

val limbs : t -> int array
(** The underlying limb array.  Treat as read-only. *)

val of_limbs : int array -> t
(** Build from 16 normalised 16-bit limbs.  The array is copied. *)
