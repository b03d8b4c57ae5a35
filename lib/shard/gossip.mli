(** Non-equivocation gossip over signed super-root announcements.

    A centralized ledger service can, in principle, {e fork}: show one
    sealed super-root to one client and a different one to another for
    the same epoch.  No single client can detect this — each sees a
    perfectly valid signed commitment.  Two clients who compare notes
    can: the service signs every epoch announcement, so two validly
    signed announcements for the same (ledger, epoch) with different
    super-roots are a self-verifying proof of equivocation (Aquareum's
    evident-misbehaviour construction; GlassDB's published-digest
    cross-check).

    Peers — replicas, clients, auditors — accumulate the announcements
    they have seen in a {!t} and {!observe} each other's.  The first
    conflicting pair folds into a compact {!fork_evidence} value whose
    {!verify_fork} needs only the service public key: no ledger state,
    no transport, no trust in either peer.  Once constructed, the
    evidence is permanent — equivocation cannot be retried away. *)

open Ledger_crypto

(** {1 Announcements} *)

type announcement = {
  ledger : string;  (** base ledger name — binds the claim to a service *)
  epoch : int;
  super : Hash.t;  (** {!Super_root.commitment} of the sealed epoch *)
  sealed_at : int64;
  signature : Ecdsa.signature;  (** service signature over the digest *)
}

val sign :
  priv:Ecdsa.private_key ->
  ledger:string ->
  epoch:int ->
  super:Hash.t ->
  sealed_at:int64 ->
  announcement
(** Sign an announcement as the service.  (Also how an equivocating
    service mints its second root — see
    {!Sharded_ledger.Unsafe.equivocate}.) *)

val announcement_valid : service_pub:Ecdsa.public_key -> announcement -> bool
(** Real-ECDSA check of the service signature. *)

val w_announcement : Wire.writer -> announcement -> unit
val r_announcement : Wire.reader -> announcement
val encode_announcement : announcement -> bytes
val decode_announcement : bytes -> announcement option

(** {1 Fork evidence} *)

type fork_evidence = {
  first : announcement;
  second : announcement;  (** same ledger and epoch, different super *)
}

val verify_fork : service_pub:Ecdsa.public_key -> fork_evidence -> bool
(** Self-verifying: both signatures must check under the service key,
    the (ledger, epoch) pairs must agree and the super-roots must
    differ.  Needs nothing else — any third party can run it. *)

val fork_to_string : fork_evidence -> string

val encode_fork : fork_evidence -> bytes
val decode_fork : bytes -> fork_evidence option

(** {1 Peer state} *)

type verdict =
  | Fresh  (** first announcement seen for this epoch *)
  | Confirmed  (** matches the announcement already on record *)
  | Forked of fork_evidence
      (** conflicts with the announcement on record: equivocation *)
  | Rejected of string
      (** bad service signature or wrong ledger name — not recorded *)

val verdict_to_string : verdict -> string

type t
(** One peer's gossip state: the announcements it has seen, by epoch,
    plus any fork evidence it has accumulated. *)

val create : ?name:string -> service_pub:Ecdsa.public_key -> ledger:string -> unit -> t
(** [name] labels this peer in metrics/audit records (default
    ["peer"]). *)

val observe : t -> announcement -> verdict
(** Fold one announcement into the peer state.  A [Forked] verdict
    also stores the evidence, bumps the
    [gossip_fork_evidence_total] counter and writes a fork audit
    record; it is returned every time a conflicting announcement for
    that epoch reappears. *)

val exchange : t -> t -> fork_evidence option
(** Cross-feed every announcement each peer holds to the other — the
    "compare notes" step.  Returns the first fork evidence surfaced (on
    either side), if any. *)

val compromised : t -> bool
(** [true] once any fork evidence exists — like
    {!Ledger_core.Ledger_client}'s [Compromised], this is sticky. *)

val condemn : t -> Ledger_core.Ledger_client.t -> unit
(** Propagate this peer's fork evidence (if any) into a client's health
    state: the client becomes [Compromised].  No-op when no evidence
    exists. *)
