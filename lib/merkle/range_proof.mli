(** Batch (range) existence proofs over a {!Forest}.

    This implements the set algebra of the paper's clue-oriented
    verification (§IV-C): given destination leaves ℕ₁, the prover ships
    only the support nodes ℕ = ℕ₂ − (ℕ₂ ∩ ℕ₃) — proof-path positions that
    the verifier cannot derive from the leaves it already holds.  The
    verifier reconstructs every peak bottom-up from the known leaves plus
    the support set and compares against the trusted node-set. *)

open Ledger_crypto

type support = ((int * int) * Hash.t) list
(** [(level, index)] ↦ digest, for each shipped interior/cover node. *)

type t = {
  size : int;  (** forest size at proving time *)
  first : int;
  last : int;  (** inclusive leaf range covered *)
  support : support;
  peak_set : Proof.node_set;
}

val prove : Forest.t -> first:int -> last:int -> t
(** @raise Invalid_argument on an empty or out-of-range interval. *)

val support_size : t -> int

val verify : known:(int * Hash.t) list -> t -> bool
(** [known] must supply the digest of {e every} leaf in [first..last]
    (computed by the verifier from retrieved journal payloads).
    Reconstructs the peaks and compares with [peak_set]; the caller is
    responsible for checking [peak_set] against a trusted commitment. *)
