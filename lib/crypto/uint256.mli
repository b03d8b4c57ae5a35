(** Fixed-width 256-bit unsigned integers.

    Values are represented as sixteen 16-bit limbs stored little-endian in an
    [int array].  All arithmetic is modulo [2^256] unless stated otherwise.
    The representation is chosen so that limb products (32 bits) and column
    sums (at most 36 bits) always fit in OCaml's 63-bit native [int], keeping
    the implementation portable and allocation-light.

    This module is the substrate for the secp256k1 field and scalar
    arithmetic used by {!Ecdsa}. *)

type t
(** A 256-bit unsigned integer.  Values are immutable from the outside:
    every exported operation returns a fresh value. *)

(** {1 Constants and conversions} *)

val zero : t
val one : t

val of_bytes_be : bytes -> t
(** [of_bytes_be b] interprets up to 32 big-endian bytes.
    @raise Invalid_argument if [Bytes.length b > 32]. *)

val to_bytes_be : t -> bytes
(** 32-byte big-endian encoding. *)

val of_hex : string -> t
(** [of_hex s] parses a hexadecimal string (no "0x" prefix, at most 64
    digits).  @raise Invalid_argument on bad input. *)

val to_hex : t -> string
(** 64-digit lowercase hexadecimal encoding. *)

(** {1 Predicates and comparison} *)

val is_zero : t -> bool
val is_odd : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

(** {1 Arithmetic modulo 2^256} *)

val add : t -> t -> t * bool
(** Sum and carry-out. *)

val sub : t -> t -> t * bool
(** Difference and borrow-out ([true] when the result wrapped). *)

val mul_wide : t -> t -> int array
(** Full 512-bit product as 32 little-endian 16-bit limbs. *)

(** {1 Modular arithmetic} *)

val add_mod : t -> t -> t -> t
(** [add_mod a b m] is [(a + b) mod m]; requires [a, b < m]. *)

val sub_mod : t -> t -> t -> t
(** [sub_mod a b m] is [(a - b) mod m]; requires [a, b < m]. *)

val inv_mod : t -> t -> t
(** [inv_mod x m] is the multiplicative inverse of [x] modulo an odd
    modulus [m] of full width, [2^255 <= m] (secp256k1's p and n), computed
    with the binary extended-GCD algorithm.
    @raise Invalid_argument if [m] is even or below [2^255], [x] is zero
    modulo [m], or not coprime. *)

(** {1 Internal access (used by Secp256k1's specialised reduction)} *)

val limbs : t -> int array
(** The underlying limb array.  Treat as read-only. *)

val of_limbs : int array -> t
(** Build from 16 normalised 16-bit limbs.  The array is copied. *)

val pp : Format.formatter -> t -> unit
