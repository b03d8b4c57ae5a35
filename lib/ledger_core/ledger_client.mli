(** Client-side verification state (paper §II-C, verification manner 2:
    "verified at client side when LSP is distrusted").

    A client keeps, outside the LSP's reach:
    - the receipts (π_s) for its own transactions;
    - a {e trusted anchor}: a fam checkpoint captured after the client (or
      an auditor it trusts) fully verified the ledger, plus the commitment
      it corresponds to.

    With those, the client can check existence proofs and receipts
    entirely locally, detect LSP repudiation, and decide when its anchor
    is stale (the commitment advanced) and a re-audit is warranted. *)

open Ledger_crypto
open Ledger_storage
open Ledger_merkle

type t

val create : name:string -> lsp_pub:Ecdsa.public_key -> t

(** {1 Health}

    A client distinguishes two very different kinds of trouble.
    {e Transient transport faults} (timeouts, garbled bytes, late
    responses) put it in [Degraded]: it keeps retrying with backoff and
    returns to [Healthy] on the next success.  A {e cryptographic
    verification failure} (bad receipt signature, repudiated journal, bad
    proof) makes it [Compromised] — permanently: no retry can make a bad
    proof good, and a client that "recovered" from one would be retrying
    the LSP's lie into acceptance. *)

type status = Healthy | Degraded | Compromised

val status : t -> status
val status_to_string : status -> string

val transient_faults : t -> int
(** Transport faults observed over the client's lifetime. *)

val note_recovery : t -> unit
(** A request succeeded; [Degraded] returns to [Healthy].  [Compromised]
    is sticky. *)

val note_verification_failure : t -> unit
(** Record cryptographic evidence against the LSP; the client becomes
    [Compromised] for good. *)

(** {1 Receipts} *)

val remember_receipt : t -> Receipt.t -> unit
val receipts : t -> Receipt.t list
(** Newest first. *)

val receipt_for : t -> jsn:int -> Receipt.t option

(** {1 Trusted anchors} *)

val adopt_anchor : t -> anchor:Fam.anchor -> commitment:Hash.t -> unit
(** Trust a checkpoint (typically after {!Audit.run} passed). *)

val anchor : t -> (Fam.anchor * Hash.t) option
val anchored_upto : t -> int
(** Journals covered by the trusted anchor (0 when none). *)

(** {1 Local verification (no trust in the LSP)} *)

val check_existence :
  t -> jsn:int -> leaf:Hash.t -> current_commitment:Hash.t ->
  Fam.anchored_proof -> bool
(** Verify a proof the LSP shipped: against the client's trusted anchor
    when it covers the journal, else against [current_commitment] (which
    the client must have obtained through a channel it trusts, e.g. a
    T-Ledger entry).  The proof is replayed on every call. *)

val check_receipt_against : t -> ledger_tx_hash:(int -> Hash.t option) -> jsn:int ->
  [ `Ok | `No_receipt | `Bad_signature | `Repudiated ]
(** Compare a remembered receipt with what the ledger {e now} claims for
    that jsn; [`Repudiated] means the LSP rewrote or dropped the journal
    after issuing the receipt.  Uses real ECDSA (the client is outside the
    simulated-profile boundary). *)

val stale : t -> current_size:int -> bool
(** The ledger grew past the anchor: new journals are unverified. *)

val check_growth :
  t ->
  delta:int ->
  new_size:int ->
  new_commitment:Hash.t ->
  Fam.extension_proof ->
  bool
(** Verify the ledger only {e appended} since the client's anchor (fam
    extension proof).  On success the caller can audit just the suffix
    and then {!adopt_anchor} the fresh state, instead of re-auditing from
    genesis. *)

(** {1 Self-healing remote checks} *)

val check_receipt_remote :
  t ->
  transport:Transport.t ->
  ?policy:Transport.policy ->
  ?seed:int ->
  clock:Clock.t ->
  jsn:int ->
  unit ->
  ( [ `Ok | `No_receipt | `Bad_signature | `Repudiated ],
    Transport.error )
  result
(** {!check_receipt_against} over an unreliable transport: fetch what the
    ledger currently claims for [jsn] (with retry/backoff/timeouts per
    the policy, degrading the client while faults persist) and compare
    with the remembered receipt.  Transient faults are retried and — when
    exhausted — reported as [Error] {e without} concluding anything about
    the receipt.  A service that refuses to produce a journal the client
    holds a receipt for, or produces one that no longer matches, is
    cryptographic evidence: the client turns [Compromised] and the
    verdict is never softened by retrying. *)
