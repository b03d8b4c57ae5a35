(** ECDSA over secp256k1 with deterministic nonces.

    This is the non-repudiation primitive of the ledger (paper §III-C):
    clients sign requests (π_c), the LSP signs receipts (π_s), and the TSA
    signs digest–timestamp pairs (π_t).  Nonces are derived RFC-6979-style
    from HMAC-SHA256, so signing is deterministic and needs no entropy
    source inside the sealed test environment. *)

type private_key = private Uint256.t
(** A scalar in [1, n).  Readable as a [Uint256.t] (the reference
    signer of the test suites needs it) but never built from one: keys
    come from {!generate}. *)

type public_key
(** A public key together with its verification table (odd multiples of
    Q, λQ, 2⁶⁴Q and λ2⁶⁴Q, 491 words), built once when the key is generated,
    derived or parsed, so no {!verify} rebuilds it.  Immutable: one key
    can be checked against from any number of domains at once. *)

type signature
(** An immutable signature, held as its 64-byte encoding r ∥ s (32 bytes
    each, big-endian): 10 words resident, where a record of two
    [Uint256.t] took 37.  {!sign_many} encodes it once; {!verify_many}
    decodes r and s once per item.  Built only by signing or by
    {!signature_of_bytes}, so every value is exactly 64 bytes; r and s
    are range-checked by the verifier, not here. *)

val generate : seed:string -> private_key * public_key
(** Derive a keypair deterministically from a seed string.  Distinct seeds
    give (overwhelmingly) distinct keys. *)

val public_key_of_point : Secp256k1.point -> public_key
(** Wrap a curve point the caller vouches is on the curve (use
    {!public_key_of_bytes} for untrusted input).  The point at infinity
    is accepted and yields a key that verifies nothing, so pathological
    keys fail closed in {!verify} rather than at construction. *)

val sign : private_key -> Hash.t -> signature
(** Sign a 32-byte message digest: the one-element case of
    {!sign_many}. *)

val sign_many : private_key -> Hash.t array -> signature array
(** Sign every digest, in order, with one key.  Each result is
    byte-identical to signing that digest alone (nonces are
    deterministic); the batch shares one field inversion for the x(kG)
    and one scalar inversion for the k⁻¹ across all items. *)

val verify : public_key -> Hash.t -> signature -> bool
(** Check a signature against a digest; total (never raises): the
    one-element case of {!verify_many}. *)

val verify_many : public_key -> (Hash.t * signature) array -> bool array
(** Check many (digest, signature) pairs against one key; each verdict
    equals {!verify} on that pair.  The s⁻¹ of every in-range signature
    share one scalar inversion. *)

val public_key_to_bytes : public_key -> bytes
(** 64-byte uncompressed encoding (x ∥ y), read from the key's table (no
    field inversion).  Raises [Invalid_argument] for the point at
    infinity. *)

val public_key_of_bytes : bytes -> public_key option
(** Parse and validate a 64-byte encoding, building the key's table;
    [None] if not on the curve. *)

val public_key_id : public_key -> Hash.t
(** Digest of the encoded public key — used as a member identifier. *)

val signature_to_bytes : signature -> bytes
(** 64-byte encoding (r ∥ s): a fresh copy of the held bytes. *)

val blit_signature : signature -> bytes -> int -> unit
(** [blit_signature s dst pos] copies the 64-byte encoding into [dst] at
    [pos], without the copy {!signature_to_bytes} makes. *)

val signature_of_bytes : bytes -> signature option
(** [None] unless exactly 64 bytes; any 64 bytes are accepted (out-of-range
    r or s fail {!verify}), and {!signature_to_bytes} gives them back
    unchanged. *)

val pp_signature : Format.formatter -> signature -> unit
