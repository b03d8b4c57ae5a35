(** The secp256k1 elliptic curve: y² = x³ + 7 over F_p.

    The kernel represents field elements as five 52-bit limbs, each a
    native 64-bit word in a 40-byte [Bytes]; the field arithmetic and
    the Jacobian group law are C ([secp256k1_stubs.c]: 128-bit column
    products, folded at 2²⁶⁰ ≡ 2³⁶ + 15632 and 2²⁵⁶ ≡ 2³² + 977, reduced
    only weakly, below 2p).  In OCaml: [k·G] as a signed-digit
    multi-comb, and the dual-scalar verify path as one wNAF ladder over
    GLV halves, each half split once more at 2⁶⁴, so every stream is
    ~64 digits long and they share ~64 doublings (a fixed width-10
    table for G, a width-5 {!table} per other point, built once by
    {!precompute}).

    Every field and scalar operation writes into caller-provided
    storage, each ladder runs its group law in place on one accumulator,
    and every table build writes its points straight into flat buffers,
    so a batch of [k·G] or [a·G + b·Q] allocates its per-call {!ctx} and
    nothing per item.  The one buffer kept between calls is each
    domain's {!with_points} buffer, which a busy flag hands to one
    caller at a time: every function here is safe to run from any
    number of domains and threads at once, and every {!point} and
    {!table} it returns is immutable.  The reference implementation the
    test suites check this kernel against lives in the test-only
    [crypto_ref] library. *)

type fe = Uint256.t
(** A field element, canonical (< p). *)

type point
(** A curve point in Jacobian coordinates (the point at infinity is
    representable).  Values are immutable after creation and safe to
    share across domains. *)

val p : Uint256.t
(** The field prime. *)

val n : Uint256.t
(** The group order. *)

val generator : point

val infinity : point
val is_infinity : point -> bool

val of_affine : fe -> fe -> point
(** [of_affine x y] builds a point; the caller asserts it is on the curve
    (use {!is_on_curve} to check untrusted input). *)

val of_jacobian : fe -> fe -> fe -> point
(** [of_jacobian x y z] is the point (x/z², y/z³), or infinity for
    [z = 0]; the caller asserts it is on the curve. *)

val to_affine : point -> (fe * fe) option
(** [None] for the point at infinity. *)

val is_on_curve : fe -> fe -> bool

val double : point -> point
val add : point -> point -> point

val add_mixed : point -> fe -> fe -> negative:bool -> point
(** [add_mixed pt x y ~negative] is [pt + (x, y)], or [pt − (x, y)], by
    the mixed (affine-operand) addition the ladders run; {!add} runs the
    Jacobian one. *)

val negate : point -> point

val scalar_mul : Uint256.t -> point -> point
(** [scalar_mul k pt] by a GLV/wNAF ladder over a table of [pt] built
    for the call; [pt = G] goes to {!scalar_mul_base}. *)

val scalar_mul_base : Uint256.t -> point
(** [scalar_mul_base k] is [k·G] by a signed-digit multi-comb (4 blocks
    × 8 teeth × spacing 8, libsecp256k1's [ecmult_gen] layout): 512
    affine points precomputed at module initialization (~40 KB), and
    every call is exactly 32 mixed additions and 7 doublings — the
    signing and key-generation hot path.  [k] is reduced mod n first.
    Its table reads are indexed by the scalar's bits, so it is not
    constant-time. *)

type table
(** A finite point's precomputed odd multiples for width-5 wNAF digits
    (P, 3P, …, 15P and the same for 2⁶⁴·P, plus the x-coordinates of
    their images under the GLV endomorphism), affine, in two flat
    [Bytes] — 249 words.  Immutable, so one table can serve any number
    of domains. *)

val precompute : point -> table
(** Build a point's table (66 doublings, 14 additions and one shared
    inversion).  Raises [Invalid_argument] on the point at infinity. *)

val resident_words : unit -> int
(** Words held by the fixed tables built at module initialization (the
    comb of {!scalar_mul_base} and G's wNAF table), as
    [Obj.reachable_words] counts them. *)

val base_table : Uint256.t -> table option
(** [base_table k] is the table of [k·G] ({!precompute} without the
    intermediate point): one accumulator computes [k·G] on the comb and
    then the table.  [None] when [k ≡ 0 (mod n)]. *)

val table_build_words : unit -> float
(** Builds the fixed tables once more, drops them, and returns the
    minor-heap words that took: what module initialization spends on
    them. *)

val table_to_bytes : table -> bytes
(** The tabled point's 64-byte encoding x ∥ y, big-endian, read from the
    table (no inversion). *)

val double_scalar_mul_base : Uint256.t -> Uint256.t -> table -> point
(** [double_scalar_mul_base a b tq] computes [a·G + b·Q] for the point
    [Q] that [tq] tables: GLV-split scalars, each half's wNAF string run
    as two streams (digits below 2⁶⁴ against the multiples of P, the
    rest against those of 2⁶⁴·P), eight streams over the fixed width-10
    table of G and [tq] on one shared chain of ~64 doublings (Shamir's
    trick) — the hot path of ECDSA verification. *)

val equal : point -> point -> bool
(** Structural equality of the represented affine points (computed by
    projective cross-comparison, no inversions). *)

val has_x_mod_n : point -> Uint256.t -> bool
(** [has_x_mod_n pt r] is true iff [pt] is finite and its affine
    x-coordinate is congruent to [r] mod n, tested in Jacobian
    coordinates (X = c·Z² for c = r or r + n) without a field
    inversion — ECDSA verification's final comparison.  [r] must be
    in [1, n). *)

(** {1 Field helpers (exposed for tests)} *)

val fe_add : fe -> fe -> fe
val fe_sub : fe -> fe -> fe
val fe_mul : fe -> fe -> fe
val fe_sqr : fe -> fe
val fe_inv : fe -> fe

val fe_inv_batch : fe array -> fe array
(** Invert a whole array with one modular inversion plus 3(k−1)
    multiplications (Montgomery's trick).  Raises [Invalid_argument] if
    any element is zero. *)

(** {1 The field kernel (exposed for tests)} *)

module Fe : sig
  type t = bytes
  (** A field element: five little-endian 52-bit limbs (the top one 48),
      each a native-endian 64-bit word, in 40 bytes.  A value of
      magnitude m has limbs 0..3 at most 2m(2⁵² − 1) and limb 4 at most
      2m(2⁴⁸ − 1).  Every operation below takes operands of magnitude at
      most 8 and writes a weak result (magnitude 1 and a value below 2p,
      so the element or the element plus p); a destination may be an
      operand. *)

  val mul_into : t -> t -> t -> unit
  val sqr_into : t -> t -> unit
  val add_into : t -> t -> t -> unit
  val sub_into : t -> t -> t -> unit
  val neg_into : t -> t -> unit

  val inv_into : t -> t -> unit
  (** Raises [Invalid_argument] on zero. *)

  val is_zero : t -> bool
  val equal : t -> t -> bool

  val to_u256 : t -> Uint256.t
  (** The canonical value (< p). *)
end

(** {1 Scalar arithmetic modulo the group order n} *)

module Scalar : sig
  type t
  (** A scalar being computed: sixteen 16-bit limbs written in place by
      the [_into] operations (whose destination may be an operand).
      Owned by one call and never shared. *)

  val create : unit -> t
  (** Zero. *)

  val set_u256 : t -> Uint256.t -> unit

  val to_u256 : t -> Uint256.t
  (** A copy. *)

  val is_zero : t -> bool

  val in_range : t -> bool
  (** [1 <= v < n]. *)

  val load : t -> bytes -> int -> unit
  (** [load r b off] sets [r] to the 32 big-endian bytes of [b] at [off],
      unreduced. *)

  val load_nonzero : t -> bytes -> int -> unit
  (** Like {!load}, then maps the value v into [1, n − 1] as
      v mod (n − 1) + 1: how keys and nonces are drawn from hash
      output. *)

  val store : bytes -> int -> t -> unit
  (** The 32-byte big-endian encoding, written at an offset. *)

  val reduce_into : t -> t -> unit
  val add_into : t -> t -> t -> unit
  (** [add_into r a b] is [r := a + b mod n], for [a, b < n]. *)

  val mul_into : t -> t -> t -> unit
  (** [mul_into r a b] is [r := a·b mod n]. *)

  val inv_batch_into : t array -> t array -> int -> unit
  (** [inv_batch_into ws xs count] sets [ws.(i)] to the inverse of
      [xs.(i)] for [i < count], with one inversion (Montgomery's trick);
      every [xs.(i)] must be in [1, n), and no element of [ws] may be one
      of [xs]. *)

  val n : Uint256.t

  val reduce : Uint256.t -> Uint256.t
  (** Reduce a value < 2²⁵⁶ mod n (a single conditional subtraction,
      since 2²⁵⁶ < 2n). *)

  val mul : Uint256.t -> Uint256.t -> Uint256.t
  val add : Uint256.t -> Uint256.t -> Uint256.t

  val inv : Uint256.t -> Uint256.t
  (** Modular inverse mod n; raises on zero. *)
end

(** {1 Batches in place}

    ECDSA's two batch forms, allocation-quiet: one {!ctx} per call holds
    every temporary of the ladders, and batch signing writes each [k·G]
    into a flat {!points} buffer. *)

type ctx
(** The scratch of one call: an accumulator, scalar temporaries and
    wNAF digit strings (~390 words).  Never shared. *)

val ctx : unit -> ctx

val check_x : ctx -> Scalar.t -> Scalar.t -> table -> Scalar.t -> bool
(** [check_x c a b tq r] is {!has_x_mod_n} of {!double_scalar_mul_base}
    [a b tq] and [r], for [r] in [1, n), computed on [c] without
    allocating. *)

type points
(** Jacobian points back to back in one buffer. *)

val with_points : int -> (points -> 'a) -> 'a
(** [with_points count f] runs [f] on room for [count] points: the
    domain's reused buffer when no other call on the domain holds it,
    else a fresh one.  [f] must not let the buffer escape. *)

val mul_base_into : ctx -> Scalar.t -> points -> int -> unit
(** [mul_base_into c k pts i] writes [k·G] into slot [i]. *)

val x_mod_n_batch : ctx -> points -> int -> Scalar.t array -> unit
(** [x_mod_n_batch c pts count rs] sets [rs.(i)] to the affine
    x-coordinate of point [i] reduced mod n, for [i < count], with one
    shared field inversion; 0 for the point at infinity.  Overwrites the
    points. *)
