(** A QLDB-style centralized ledger service (paper §VI-D, Table II).

    Faithful structural properties:
    - every document revision is a leaf of one global {e tim} Merkle
      accumulator, so verification proofs grow with total ledger size;
    - [GetRevision] verification walks the full-height proof, fetching
      each proof node through the service API;
    - the lineage pattern is the paper's [key, data, prehash, sig] schema:
      verifying a key at version [v] verifies {e every} revision
      individually and re-checks each prehash link and signature — cost
      linear in the version count.

    Substitution note: the public AWS service is replaced by a latency
    model (cloud RTT per API call, per-proof-node fetch cost) calibrated
    to commodity cross-service numbers; the {e shape} — flat LedgerDB vs
    version-linear QLDB — is structural, not calibrated. *)

open Ledger_storage

type t

type config = {
  cloud_rtt_ms : float;  (** one client→service round trip *)
  proof_node_fetch_ms : float;  (** per proof-node digest fetch *)
  sig_verify_ms : float;  (** client-side ECDSA verify in the lineage schema *)
}

val create : ?config:config -> clock:Clock.t -> unit -> t

(** {1 Notarization document API} *)

val insert : t -> id:string -> bytes -> unit
val retrieve : t -> id:string -> bytes option
val verify : t -> id:string -> bool
(** [GetRevision]-style: fetch the revision, fetch the digest tip, walk
    the full accumulator proof. *)

(** {1 Lineage schema} *)

val put_version : t -> key:string -> bytes -> unit
(** Appends a new revision with prehash of the previous one and a client
    signature, per the paper's lineage schema. *)

val version_count : t -> key:string -> int

val verify_lineage : t -> key:string -> bool
(** Verify every revision of the key: existence proof + prehash link +
    signature, each at full per-revision cost. *)

val preload : t -> int -> unit
(** Grow the global accumulator with [n] synthetic revisions (no clock
    charge) so proofs have production-scale height. *)
