(** 32-byte digests: the universal currency of the ledger.

    Every journal, tree node, receipt, and proof in this reproduction is
    identified by a [Hash.t].  Digests are SHA-256 by default; {!scatter}
    uses SHA-3 for clue-key scattering as in the paper. *)

type t
(** An immutable 32-byte digest. *)

val of_bytes : bytes -> t
(** @raise Invalid_argument if the buffer is not exactly 32 bytes. *)

val to_bytes : t -> bytes
val of_hex : string -> t
val to_hex : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int

val zero : t
(** The all-zero digest, used as a placeholder for empty tree slots. *)

val digest_bytes : bytes -> t
(** SHA-256 of a byte buffer. *)

val digest_sub : bytes -> int -> int -> t
(** [digest_sub b off len] is the SHA-256 of [len] bytes of [b] from
    [off], hashed where they lie. *)

val digest_string : string -> t
(** SHA-256 of a string. *)

val blit : t -> bytes -> int -> unit
(** [blit h dst pos] copies the digest's 32 bytes into [dst] at [pos]. *)

val absorb : Sha256.ctx -> t -> unit
(** Feed a digest's 32 bytes to a SHA-256 context, without a copy. *)

val finalize : Sha256.ctx -> t
(** SHA-256 of everything the context absorbed, as a digest. *)

val combine : t -> t -> t
(** [combine l r] is the digest of the concatenation [l ∥ r]: the interior
    node rule of every Merkle structure in this library. *)

val combine_tagged : string -> t -> t -> t
(** [combine_tagged tag l r] domain-separates interior-node hashing with a
    tag prefix, preventing cross-structure proof confusion. *)

val scatter : string -> t
(** SHA-3 digest of a clue key (paper §IV-B2): scatters user-chosen clue
    strings uniformly so the MPT stays balanced. *)

val short_hex : t -> string
(** First 8 hex digits, for logs and display. *)

val pp : Format.formatter -> t -> unit
