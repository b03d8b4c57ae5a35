(** Nibble (4-bit) paths for the Merkle Patricia Trie.

    A path is a [string] of lowercase hex digits, one per nibble, the high
    nibble of each byte first.  Those are exactly the bytes a trie node
    hash covers, so a path is hashed as it is held, and [String.compare]
    orders paths nibble by nibble (['0'..'9'] sort before ['a'..'f']).

    CM-Tree1 keys are SHA-3 digests of clue strings, 64 nibbles each, so
    every branch node has 16 children (paper §IV-B2). *)

open Ledger_crypto

val max_length : int
(** 4096: the longest path a trie proof may carry on the wire. *)

val of_string : string -> string
(** The path of a byte string: two hex digits per byte. *)

val of_hash : Hash.t -> string
(** 64 nibbles of a 32-byte digest. *)

val digit : int -> char
(** The hex digit of a nibble value in [0, 15]. *)

val get : string -> int -> int
(** [get p i] is the value of nibble [i] of [p]: [0..15], or [-1] if that
    character is not a lowercase hex digit. *)

val is_path : string -> bool
(** Every character is a lowercase hex digit. *)

val common_prefix_length : string -> int -> string -> int -> int
(** [common_prefix_length a ai b bi] is the length of the longest common
    prefix of [a] from [ai] and [b] from [bi]. *)
