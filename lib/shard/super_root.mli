(** Epoch-level commitment over a fleet of sealed shard roots.

    Once every shard has sealed its trailing block, the coordinator
    collects the N shard commitments and builds a small static Merkle
    tree over them; its root — combined with the epoch number and each
    shard's sealed size — is the {e super-root}, the single digest a
    client (or a time notary) holds for the whole fleet.  Shard leaves
    are domain-separated ([H("shard:<i>" ) ∥ root ∥ size]) so a shard
    root can never be confused with an interior node or replayed at a
    different position or size.

    {b Degraded epochs.}  A quarantined shard need not block the fleet:
    a [Degraded_skip] seal carries the absent shard's {e last sealed}
    root and size forward, but under a distinct leaf domain
    ([H("shard-carried:<i>")]) and with its {!presence} recorded in the
    commitment.  The skip is therefore verifiable, not silent: an
    inclusion proof for a carried shard says so on its face, receipts
    against the carried root keep checking, and no party can pass a
    degraded epoch off as a full one (the roots differ).

    A cross-shard proof then composes two hops: a shard-local fam proof
    chaining the journal to its shard's sealed commitment, and an
    {!inclusion} chaining that commitment to the super-root. *)

open Ledger_crypto
open Ledger_merkle

type presence =
  | Sealed  (** the shard sealed live in this epoch *)
  | Carried
      (** the shard was absent (quarantined/dead); its last sealed root
          and size are carried forward, flagged in the leaf domain *)

type sealed = {
  epoch : int;  (** 0-based seal sequence number *)
  sealed_at : int64;  (** fleet clock at the seal barrier *)
  shard_roots : Hash.t array;  (** per-shard fam commitment, by shard *)
  shard_sizes : int array;  (** per-shard journal count at the seal *)
  presence : presence array;  (** how each shard entered the epoch *)
  root : Hash.t;  (** Merkle root over the shard leaves *)
}

val seal :
  epoch:int -> at:int64 -> ?presence:presence array -> (Hash.t * int) array ->
  sealed
(** Build the epoch commitment from [(commitment, size)] per shard.
    [presence] defaults to all-[Sealed] (a full epoch); its length must
    match the fleet.
    @raise Invalid_argument on an empty fleet or length mismatch. *)

val carried : sealed -> int list
(** Indices of the shards that were carried (skipped) in this epoch,
    ascending; empty for a full epoch. *)

val full : sealed -> bool
(** [true] iff every shard sealed live ([carried s = []]). *)

val commitment : sealed -> Hash.t
(** The client-held digest: [H(tag ∥ epoch ∥ root)] — binds the Merkle
    root to its epoch number so two epochs with identical fleets still
    yield distinct anchors. *)

type inclusion = {
  shard : int;
  shards : int;
  shard_root : Hash.t;
  shard_size : int;
  shard_presence : presence;
      (** carried-ness is part of what the proof asserts: a verifier
          always learns whether the root it checked was live or carried *)
  epoch : int;
  path : Proof.path;  (** Merkle path from the shard leaf to [root] *)
}

val prove : sealed -> shard:int -> inclusion
(** @raise Invalid_argument if [shard] is out of range. *)

val verify : super:Hash.t -> inclusion -> bool
(** Check the inclusion against a trusted {!commitment} digest. *)

(** {1 Wire codecs} *)

val w_sealed : Wire.writer -> sealed -> unit
val r_sealed : Wire.reader -> sealed
val encode_sealed : sealed -> bytes
val decode_sealed : bytes -> sealed option

val w_inclusion : Wire.writer -> inclusion -> unit
val r_inclusion : Wire.reader -> inclusion
val encode_inclusion : inclusion -> bytes
val decode_inclusion : bytes -> inclusion option
