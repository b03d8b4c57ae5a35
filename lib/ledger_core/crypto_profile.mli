(** Signature execution profile.

    The paper's deployment signs with hardware-accelerated ECDSA
    (microseconds per operation); this reproduction's from-scratch ECDSA
    costs milliseconds.  To keep benchmark {e shapes} faithful without
    hours of wall-clock, the ledger can run in one of two profiles:

    - [Real] — every signature is produced and verified with {!Ecdsa}.
      Used by correctness and threat-model tests, and by the Fig. 7
      latency measurements.
    - [Simulated] — signatures are deterministic MAC-like digests bound to
      (public key, message); producing/checking one {e advances the
      simulated clock} by a calibrated hardware-crypto cost instead of
      burning CPU.  Payload tampering is still detected (the digest
      changes); only signature {e forgery} resistance is out of scope,
      which no throughput benchmark relies on. *)

open Ledger_crypto
open Ledger_storage

type t =
  | Real
  | Simulated of { sign_us : float; verify_us : float }

val default_simulated : t
(** 30 µs sign / 70 µs verify — OpenSSL-class secp256k1 numbers. *)

val sign :
  t -> Clock.t -> priv:Ecdsa.private_key -> pub:Ecdsa.public_key -> Hash.t ->
  Ecdsa.signature
(** Charges the simulated sign cost, then signs — exactly [charge_sign]
    followed by [sign_pure]. *)

val sign_pure :
  t -> priv:Ecdsa.private_key -> pub:Ecdsa.public_key -> Hash.t ->
  Ecdsa.signature
(** The pure half of {!sign}: produce a signature without touching any
    clock.  Remote clients live outside the server's simulated-time
    boundary — a socket client signing π_c has no ledger clock to
    charge — so they sign with this and the wall clock pays the real
    cost.  Pooled batch signing runs it across domains after charging
    with {!charge_sign} in submission order. *)

val sign_many :
  t -> priv:Ecdsa.private_key -> pub:Ecdsa.public_key -> Hash.t array ->
  Ecdsa.signature array
(** {!sign_pure} over many digests, in order, touching no clock: [Real]
    is {!Ecdsa.sign_many} (one shared inversion per call, each signature
    byte-identical to {!sign_pure}'s), [Simulated] maps per item.  The
    pooled receipt signer calls it once per pool chunk. *)

val charge_sign : t -> Clock.t -> unit
(** Advance the clock by the simulated sign cost ([Real]: no-op). *)

val verify : t -> Clock.t -> pub:Ecdsa.public_key -> Hash.t -> Ecdsa.signature -> bool
(** Charges the simulated verify cost, then decides — exactly
    [charge_verify] followed by [check]. *)

val check : t -> pub:Ecdsa.public_key -> Hash.t -> Ecdsa.signature -> bool
(** The pure half of {!verify}: decides without touching any clock, so
    it is safe to evaluate from pooled tasks.  Callers that must keep
    the simulated clock byte-identical to the sequential path charge
    separately with {!charge_verify}, in submission order. *)

val check_many :
  t -> pub:Ecdsa.public_key -> (Hash.t * Ecdsa.signature) array -> bool array
(** {!check} over many (digest, signature) pairs against one key,
    touching no clock: [Real] is {!Ecdsa.verify_many} (one shared
    inversion per call), [Simulated] maps per item.  Each verdict equals
    {!check} on that pair.  The pooled batch appends call it once per
    pool chunk. *)

val charge_verify : t -> Clock.t -> unit
(** Advance the clock by the simulated verify cost ([Real]: no-op). *)
