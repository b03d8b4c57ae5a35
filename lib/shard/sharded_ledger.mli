(** A fleet of ledger shards under one epoch super-root.

    N independent {!Ledger_core.Ledger} instances — each with its own
    fam accumulator, CM-Tree, stream store and batched commit pipeline —
    are coordinated behind the {!Shard_router} placement function.  At
    epoch boundaries {!seal_epoch} seals every shard's trailing block
    and commits the N shard roots into one {!Super_root.sealed}, so a
    single client-held digest (and a single time-notary anchor) covers
    the whole fleet.

    {b Degenerate fleet.}  With [shards = 1] the single shard {e is} an
    unsharded ledger: it keeps the base config name (so member keys, the
    LSP key and the ledger URI derive identically) and shares the
    caller's clock, making the committed history byte-identical to a
    plain [Ledger.t] driven with the same operations — the differential
    property the test suite pins.

    {b Cost model.}  With [shards > 1] each shard runs on its own
    simulated clock (forked from the coordinator's at creation);
    appends charge only the owning shard, and {!seal_epoch} is the
    barrier that advances every clock to the fleet maximum.  Fleet
    makespan is therefore the slowest shard's time, which is what
    [bench_shard] measures as shard count scales. *)

open Ledger_crypto
open Ledger_storage
open Ledger_merkle
open Ledger_core

type config = {
  base : Ledger.config;  (** per-shard ledger parameters *)
  shards : int;  (** fleet width, 1..1024 *)
}

val shard_name : config -> int -> string
(** [base.name] for a one-shard fleet; ["<base>/s<i>"] otherwise. *)

val shard_config : config -> int -> Ledger.config
(** The full per-shard ledger config (used by replicas to rebuild a
    shard with matching LSP key derivation and block geometry). *)

type t

val create : ?config:config -> clock:Clock.t -> unit -> t
(** [clock] is the coordinator (fleet) clock.  A one-shard fleet shares
    it with the shard; larger fleets fork one clock per shard from its
    current reading. *)

val config : t -> config
val router : t -> Shard_router.t
val shard_count : t -> int

val shard : t -> int -> Ledger.t
(** @raise Invalid_argument if out of range. *)

val shard_clock : t -> int -> Clock.t

val fleet_clock : t -> Clock.t
val total_size : t -> int
(** Sum of shard sizes. *)

val shard_healthy : t -> int -> bool
(** [Ledger.store_healthy] of the shard — the probe the supervisor and
    the seal path share. *)

val service_public_key : t -> Ecdsa.public_key
(** The fleet service's announcement-signing key (seeded from
    ["fleet:<base name>"]).  Gossip peers verify announcements — and
    judge fork evidence — against this key alone. *)

val replace_shard : t -> int -> ledger:Ledger.t -> clock:Clock.t -> unit
(** Swap in a repaired shard kernel (rebuilt by
    {!Ledger_core.Replica.pull_verbose} from a healthy replica) together
    with the clock it was rebuilt on; the old shard state is dropped.
    @raise Invalid_argument if out of range. *)

val new_member :
  t -> name:string -> role:Roles.role -> Roles.member * Ecdsa.private_key
(** One keypair (seeded from the {e base} name, as the unsharded ledger
    would) registered on every shard, so a client can append wherever
    the router sends it. *)

(** {1 Routed append} *)

val append :
  t ->
  member:Roles.member ->
  priv:Ecdsa.private_key ->
  ?clues:string list ->
  bytes ->
  int * Receipt.t
(** Route by {!Shard_router.route} and append to the owning shard;
    returns [(shard, receipt)].  The receipt's [jsn] is shard-local. *)

val append_batch :
  ?pool:Ledger_par.Domain_pool.t ->
  t ->
  member:Roles.member ->
  priv:Ecdsa.private_key ->
  ?seal:bool ->
  (bytes * string list) list ->
  (int * Receipt.t) list
(** Partition a batch by owning shard (preserving submission order
    within each shard) and commit one amortized {!Ledger.append_batch}
    per shard.  Results are in submission order.  Per-shard appends fan
    out across [pool] (default {!Ledger_par.Domain_pool.default}) —
    shards are independent kernels on forked clocks, so the committed
    fleet state is byte-identical for any pool size. *)

(** {1 Epoch sealing} *)

type seal_policy =
  | All_or_nothing
      (** any absent shard refuses the whole seal — no partial
          super-root is ever recorded (the original, default policy) *)
  | Degraded_skip
      (** absent shards are carried: the epoch seals with their last
          sealed root and size under a [Carried] presence flag, so the
          fleet stays live while the skip remains verifiable in every
          inclusion proof.  Refused only when {e every} shard is
          absent. *)

val seal_epoch :
  ?pool:Ledger_par.Domain_pool.t ->
  ?policy:seal_policy ->
  ?skip:int list ->
  t ->
  (Super_root.sealed, string) result
(** Seal every shard's trailing block (fanned out across [pool]),
    synchronize the fleet clocks and commit the epoch super-root.  A
    shard is {e absent} when it is listed in [skip] (the supervisor's
    quarantine set — excluded without touching it) or when its store
    probe fails ([not Ledger.store_healthy]).  Under the default
    [All_or_nothing] policy any absent shard refuses the whole seal with
    an error naming the shard; under [Degraded_skip] absent shards are
    carried forward (see {!seal_policy}) and their clocks are left
    untouched.  A store failure surfacing mid-seal inside a pooled task
    yields the same refused verdict as the sequential path.
    @raise Invalid_argument if a [skip] index is out of range. *)

val epochs : t -> Super_root.sealed list
(** Oldest first. *)

val latest : t -> Super_root.sealed option
val epoch : t -> int -> Super_root.sealed option
val super_digest : t -> Hash.t option
(** {!Super_root.commitment} of the latest sealed epoch. *)

val anchor_epoch : t -> Ledger_timenotary.Tsa.pool -> Ledger_timenotary.Tsa.token
(** One TSA endorsement covers the fleet: the token signs the latest
    epoch's {!Super_root.commitment}.
    @raise Invalid_argument when no epoch has been sealed. *)

(** {1 Signed epoch announcements} *)

val announce : t -> Gossip.announcement option
(** The service-signed announcement of the latest sealed epoch — what
    the service publishes to gossip peers.  [None] before any seal. *)

val announce_epoch : t -> int -> Gossip.announcement option
(** Announcement for a specific sealed epoch. *)

(** Test-only adversarial entry points. *)
module Unsafe : sig
  val equivocate : t -> epoch:int -> Gossip.announcement option
  (** Behave as a forking service: mint a {e second} validly signed
      announcement for an already-sealed epoch whose super-root is a
      deterministic perturbation of the real one.  Feeding this and the
      honest announcement to any {!Gossip} peer yields self-verifying
      fork evidence.  [None] if the epoch was never sealed. *)
end

(** {1 Cross-shard proofs} *)

type sharded_proof = {
  shard : int;
  jsn : int;  (** shard-local journal sequence number *)
  fam : Fam.proof;  (** journal → shard commitment *)
  inclusion : Super_root.inclusion;  (** shard commitment → super-root *)
}

val prove : t -> shard:int -> jsn:int -> (sharded_proof, string) result
(** Compose the two hops against the latest sealed epoch, from the
    shard's published {!Ledger_core.Ledger.Read_view} — safe from any
    domain, concurrently with appends and seals.  Refused when no epoch
    is sealed, or when the shard has committed past its sealed root (the
    proof would dangle) — reseal and retry.
    @raise Invalid_argument when [shard] is out of range. *)

val verify_proof :
  t -> super:Hash.t -> ?payload_digest:Hash.t -> sharded_proof -> bool
(** Client-level replay against a trusted super-root digest: the fam
    proof must chain the journal's retained leaf to the inclusion's
    shard root, and the inclusion must chain that root to [super].
    With [payload_digest], the stored payload must still match. *)

val w_sharded_proof : Wire.writer -> sharded_proof -> unit
val r_sharded_proof : Wire.reader -> sharded_proof
val encode_sharded_proof : sharded_proof -> bytes
val decode_sharded_proof : bytes -> sharded_proof option
