(** Nibble (4-bit) paths for the Merkle Patricia Trie.

    CM-Tree1 keys are SHA-3 digests of clue strings, split into 64 nibbles
    so every branch node has 16 children (paper §IV-B2). *)

open Ledger_crypto

val of_bytes : bytes -> int array
(** High nibble first for each byte. *)

val of_hash : Hash.t -> int array
(** 64 nibbles of a 32-byte digest. *)

val of_string : string -> int array

val common_prefix_length : int array -> int -> int array -> int -> int
(** [common_prefix_length a ai b bi] is the length of the longest common
    prefix of [a] from [ai] and [b] from [bi]. *)

val sub : int array -> int -> int -> int array
val to_string : int array -> string
(** Hex rendering, for display and node serialization. *)

val absorb : Sha256.ctx -> int array -> unit
(** Feed the bytes of [to_string path] to a SHA-256 context, without
    building the string: how trie node hashes cover their paths. *)
