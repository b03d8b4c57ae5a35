(** Time Stamp Authority — the only party LedgerDB's threat model trusts
    (Prerequisite 3): an independent authority whose public key is
    CA-certified and whose clock is authoritative.

    [endorse] implements the first half of Protocol 3: assign the current
    timestamp to a submitted digest and sign the digest–timestamp pair.
    Endorsement costs a configurable round trip on the simulated clock —
    the reason direct TSA pegging is expensive and the T-Ledger exists. *)

open Ledger_crypto
open Ledger_storage

type t

type token = {
  digest : Hash.t;
  timestamp : int64;  (** microseconds, TSA clock *)
  tsa_id : Hash.t;  (** public-key id of the endorsing authority *)
  signature : Ecdsa.signature;
}

val create : ?endorse_rtt_ms:float -> clock:Clock.t -> string -> t
(** [endorse_rtt_ms] defaults to 50 ms — a remote authority service. *)

val public_key : t -> Ecdsa.public_key

val endorse : t -> Hash.t -> token
(** Charge the round trip, stamp, sign. *)

val verify_token : Ecdsa.public_key -> token -> bool

(** {1 Certificate chain}

    Prerequisite 3 requires the TSA's public key to be certified by a CA.
    Real RFC 3161 tokens carry that chain, and verifying a {e direct} TSA
    token means validating it end to end — the reason direct pegging's
    {e when} verification is far costlier than checking a shared T-Ledger
    anchor (Fig. 7, left bars). *)

type certificate = {
  subject : Hash.t;  (** certified TSA key id *)
  issuer_sig : Ecdsa.signature;  (** CA signature over the subject *)
  root_sig : Ecdsa.signature;  (** root self-signature *)
}

val verify_token_with_chain : t -> token -> bool
(** Token signature plus the full certificate chain (three signature
    verifications in total). *)

(** {1 TSA pools}

    A pool of independent authorities avoids a single point of failure
    (paper §III-B1); endorsements rotate round-robin. *)

type pool

val pool : t list -> pool
(** @raise Invalid_argument on an empty list. *)

val pool_endorse : pool -> Hash.t -> token
val pool_find : pool -> Hash.t -> t option
(** Find the pool member with the given id. *)

val pool_verify : pool -> token -> bool
