(** The LedgerDB kernel: journals, fam accumulator, CM-Tree, world-state,
    blocks, receipts, time anchoring, purge and occult (paper §II-C).

    One [Ledger.t] plays the role of proxy + server + shared storage of
    Fig. 1.  Clients interact through {!append} (which performs the
    three-phase signing: the client's π_c is checked, the journal is
    committed, and the LSP's π_s receipt is returned) and through the
    verification APIs, which can be exercised at server level (trusting
    the LSP) or client level (proof objects shipped out and replayed). *)

open Ledger_crypto
open Ledger_storage
open Ledger_merkle
open Ledger_cmtree
open Ledger_timenotary

type config = {
  name : string;
  block_size : int;  (** journals per block *)
  fam_delta : int;  (** fractal height of the journal accumulator *)
  latency : Latency_model.t;
  crypto : Crypto_profile.t;
  member_ca : Ecdsa.public_key option;
      (** when set, every member registration must present a certificate
          from this CA, and the audit verifies the chain per journal
          (threat model §II-B). *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?t_ledger:T_ledger.t ->
  ?tsa:Tsa.pool ->
  clock:Clock.t ->
  unit ->
  t

val config : t -> config
val clock : t -> Clock.t
val uri : t -> string
val registry : t -> Roles.registry
val lsp_public_key : t -> Ecdsa.public_key

val register_member :
  t ->
  ?certificate:Roles.certificate ->
  name:string ->
  role:Roles.role ->
  Ecdsa.public_key ->
  Roles.member
(** @raise Invalid_argument when the ledger requires a member CA and the
    certificate is missing or invalid. *)

val new_member :
  ?ca_priv:Ecdsa.private_key ->
  t ->
  name:string ->
  role:Roles.role ->
  Roles.member * Ecdsa.private_key
(** Convenience: generate a keypair (seeded by the name) and register;
    with [ca_priv], also mint and record the member's certificate. *)

(** {1 Read snapshots (lock-free read path)}

    Every mutation boundary — append, batch commit, block seal, member
    registration, purge, occult, reorganize, storage compaction, the
    Unsafe forgeries, and load — republishes an immutable {!Read_view.t}
    with a single [Atomic.set].  Any domain can grab the current view
    with {!read_view} (a single [Atomic.get], no lock) and serve proofs,
    payloads, receipts and range-query pages against it.  The view is the
    server's only read path ({!Service}); its lookups share their bodies
    with the in-process accessors below (DESIGN.md §17).  Purge/occult
    erasures remain visible through already-captured views: snapshots
    never resurrect erased payloads. *)

module Read_view : sig
  type t

  val epoch : t -> int
  (** Publication counter; strictly increases with every republish.
      Pages of a query scan pinned to an epoch either all come from that
      view or the scan is refused as stale. *)

  val name : t -> string
  val size : t -> int
  val block_count : t -> int
  val block : t -> int -> Block.t
  val journal : t -> int -> Journal.t
  val tx_hash_of : t -> int -> Hash.t

  val payload : t -> int -> bytes option
  (** Served from the pinned stream capture — no latency model is
      charged (there is no writer clock to charge from a reader
      domain). *)

  val commitment : t -> Hash.t
  val get_proof : t -> int -> Fam.proof
  val prove_extension : t -> old_size:int -> Fam.extension_proof
  val clue_root : t -> Hash.t

  val prove_clue :
    t -> clue:string -> ?first:int -> ?last:int -> unit ->
    Cm_tree.clue_proof option

  val query_index : t -> Ledger_query.Query_index.t
  val query_root : t -> Hash.t
  val members_wire : t -> (string * string * bytes) list
  (** (name, role tag, public-key bytes), sorted by name — the
      [Get_members] wire form: {!Roles.members_wire} as it stood at
      publication. *)

  val pseudo_genesis_jsn : t -> int option
  val published_at : t -> int64
  (** Clock value pinned when the view was published; {!receipt}
      timestamps carry it. *)

  val receipt : t -> int -> Receipt.t
  (** Receipt signed with the pure crypto profile (no clock charge)
      against {!published_at}. *)
end

val read_view : t -> Read_view.t
(** The current snapshot — one [Atomic.get], safe from any domain. *)

(** {1 Append (journal-level commitment, Fig. 1)}

    The four entry points below — {!append}, {!append_signed},
    {!append_batch} and {!append_signed_batch} — are cases of one
    pipeline: admission (every request digest re-derived, every π_c
    decided in one pooled pass, journals stamped in submission order up
    to the first bad entry), one commit over the admitted journals
    (block-sized chunks, the same commit the system journals and
    snapshot replay go through), an optional trailing seal, and the
    receipts' π_s.  A single entry is the one-element case of a batch.

    Every entry point first refuses an entry whose clue list names one
    clue twice, before any clock charge, signing or state change.
    Admission copies each payload once; that copy is shared by the
    journal and its stream record, so a committed journal's [payload] is
    the ledger's own and must not be mutated. *)

val append :
  t ->
  member:Roles.member ->
  priv:Ecdsa.private_key ->
  ?cosigners:(Roles.member * Ecdsa.private_key) list ->
  ?clues:string list ->
  bytes ->
  Receipt.t
(** Sign the request as [member] (π_c), commit the journal, return the
    LSP-signed receipt (π_s): the one-entry, in-process case of the
    append pipeline.  [cosigners] produce a multi-signed journal (the
    Fig. 7 {e who} sweep).
    @raise Invalid_argument if the member or a cosigner is unknown, a
    clue repeats or a clue is longer than 2048 bytes (refused before any
    clock charge or state change), or on a bad client signature. *)

val size : t -> int

val store_healthy : t -> bool
(** [false] once the backing {!Stream_store} has been killed by the
    chaos hooks ({!Stream_store.Unsafe.kill}); sharded coordinators
    probe every member ledger before sealing an epoch so a dead shard
    refuses the seal instead of tearing it. *)

val backing_store : t -> Stream_store.t
(** The ledger's stream store — exposed for the fault-injection suite
    ({!Stream_store.Unsafe.kill} on one shard) and storage accounting. *)

val journal : t -> int -> Journal.t
(** Journal metadata by jsn (present even after occult/purge tombstoning —
    see {!payload} for the data itself).
    @raise Invalid_argument if out of range. *)

val payload : t -> int -> bytes option
(** Journal payload from the stream store (latency-charged);
    [None] after occult or purge erasure. *)

val tx_hash_of : t -> int -> Hash.t
(** Accumulator leaf digest for a jsn (Protocol 2: this is the retained
    hash for occulted journals). *)

val iter_journals : t -> (Journal.t -> unit) -> unit

(** {1 Blocks and receipts} *)

val block_count : t -> int
val block : t -> int -> Block.t
val blocks : t -> Block.t list
val seal_block : t -> unit
(** Force-commit a partial block. *)

val append_batch :
  ?pool:Ledger_par.Domain_pool.t ->
  t ->
  member:Roles.member ->
  priv:Ecdsa.private_key ->
  ?seal:bool ->
  (bytes * string list) list ->
  Receipt.t list
(** Append a batch of (payload, clues) pairs in one round trip: one
    network charge, one storage append and one fam accumulation per
    block-sized chunk, and (with [seal], the default) a single trailing
    block seal so all receipts are final.  [~seal:false] leaves a partial
    trailing block pending — exactly the state sequential {!append}s
    would have left — for callers that keep batching.  The in-process
    batch case of the append pipeline: client signing and verify charges
    interleave per entry, then admission decides every π_c in one pooled
    pass.  When crypto and latency charges are zero (as in
    test_batch_diff), the committed history is byte-identical to
    appending the entries one at a time (then {!seal_block} with
    [seal]).  With non-zero charges it is not: the batch takes one
    network charge instead of one per entry and signs its receipts after
    the whole commit, so the timestamps differ.

    [pool] (default {!Ledger_par.Domain_pool.default}) fans the pure
    work — leaf hashing, fam interior hashing, π_c checks, the receipts'
    π_s signatures — across domains; client signing, clock charges,
    receipt timestamps and accumulation stay sequential, so the history
    and the receipts are byte-identical for any pool size (DESIGN.md
    §10, §12). *)

val append_signed :
  t ->
  member_id:Hash.t ->
  payload:bytes ->
  clues:string list ->
  client_ts:int64 ->
  nonce:int ->
  signature:Ecdsa.signature ->
  (Receipt.t, string) result
(** Remote append (Fig. 1): the request was signed on the client side;
    the server re-derives the request hash and validates π_c before
    committing — the one-entry case of {!append_signed_batch} without
    the trailing seal.  [Error] on an unknown member, a negative nonce
    (["append: negative nonce"]), a repeated clue
    (["append: duplicate clue"]), a clue longer than 2048 bytes
    (["append: clue longer than 2048 bytes"]) or a bad signature. *)

val append_signed_batch :
  ?pool:Ledger_par.Domain_pool.t ->
  t ->
  member_id:Hash.t ->
  (bytes * string list * int64 * int * Ecdsa.signature) list ->
  (Receipt.t list, string) result
(** Remote batched append (the [Append_batch] wire request): each entry
    is [(payload, clues, client_ts, nonce, signature)].  Every signature
    is validated — digests re-derived and π_c decided across [pool],
    before any state mutation — and a bad entry rejects the whole batch
    atomically, with the same error and simulated-clock position as the
    sequential path.  The remote batch case of the append pipeline: it
    seals the trailing block, so all receipts are final; their π_s are
    signed across [pool] as in {!append_batch}.  An entry with a
    negative nonce rejects the batch with
    ["append_batch: negative nonce (entry i)"], one that repeats a clue
    with ["append_batch: duplicate clue (entry i)"], and one with a clue
    longer than 2048 bytes with
    ["append_batch: clue longer than 2048 bytes (entry i)"], before
    anything is charged. *)

val get_receipt : t -> int -> Receipt.t
(** Final receipt for a jsn (re-signed with the block hash once the block
    is sealed). *)

val verify_receipt : t -> Receipt.t -> bool
(** Check an LSP receipt signature under the ledger's crypto profile
    (use {!Receipt.verify} directly only with the [Real] profile).
    Like the other check primitives here, it records no audit entry:
    the verifier that calls it ([Verify_api], [Audit], [Ledger_client])
    records the verdict once. *)

(** {1 Existence verification (what)} *)

val commitment : t -> Hash.t
(** Current fam node-set digest — the ledger's trust root. *)

val get_proof : t -> int -> Fam.proof
val verify_existence : t -> jsn:int -> payload_digest:Hash.t option -> Fam.proof -> bool
(** Client-level check: the proof must chain the journal's tx-hash to the
    current commitment; when [payload_digest] is given it must also match
    the journal's recorded request linkage. *)

val prove_extension : t -> old_size:int -> Fam.extension_proof
(** Prove the ledger is an append-only extension of its state at
    [old_size] journals — what a returning client checks before adopting
    a fresh anchor. *)

val verify_extension :
  t -> old_size:int -> old_peaks:Proof.node_set -> Fam.extension_proof -> bool

val make_anchor : t -> Fam.anchor
val get_proof_anchored : t -> Fam.anchor -> int -> Fam.anchored_proof
val verify_anchored : t -> Fam.anchor -> leaf:Hash.t -> Fam.anchored_proof -> bool

(** {1 Clues and N-lineage (CM-Tree)} *)

val cm_tree : t -> Cm_tree.t

val query_index : t -> Ledger_query.Query_index.t
(** The ordered clue trie backing verifiable range/prefix queries
    (DESIGN.md §16).  A deterministic pure function of committed journal
    history: replaying the journal stream rebuilds the same index, so its
    root needs no separate commitment in the block chain. *)

val query_root : t -> Hash.t
(** Root of {!query_index} — the trust anchor a client verifies
    range-query pages against. *)

val clue_jsns : t -> string -> int list
(** All jsns of a clue, ascending — served from the cSL index (§IV-A). *)

val clue_jsns_in_range : t -> string -> lo:int -> hi:int -> int list
(** Jsns of a clue within a jsn interval, via the skip list's O(log n)
    range lookup. *)

val clue_entries : t -> string -> int

val prove_clue : t -> clue:string -> ?first:int -> ?last:int -> unit -> Cm_tree.clue_proof option

val verify_clue_client : t -> Cm_tree.clue_proof -> bool
(** Full client-side clue verification (§IV-C): retrieves the journals in
    the proof's version range, recomputes their digests, replays both
    CM-Tree layers against the latest block's clue root. *)

val verify_clue_server : t -> clue:string -> bool

(** {1 ListTx (§IV-A)} *)

type tx_filter = {
  by_clue : string option;
  by_member : Hash.t option;
  after_ts : int64 option;  (** inclusive lower bound on server_ts *)
  before_ts : int64 option;  (** exclusive upper bound *)
  kinds : string list option;  (** {!Journal.kind_tag} values *)
}

val any_tx : tx_filter
(** Matches everything; override fields with [{ any_tx with ... }]. *)

val list_tx : t -> ?filter:tx_filter -> ?limit:int -> unit -> int list
(** Jsns matching the filter, ascending; clue-filtered queries are served
    from the cSL index. *)

(** {1 World-state (single-layer state accumulator, Fig. 2)}

    Every clue-carrying journal appends one state-transition leaf —
    [H(scatter(clue) ∥ tx-hash)] — to the world-state accumulator, whose
    root is recorded in every block.  A state-update proof shows that a
    particular version of a clue's state was committed, without touching
    the clue's CM-Tree. *)

val world_state_root : t -> Hash.t option
(** [None] while no clue-carrying journal exists. *)

val world_state_size : t -> int

val prove_state_update : t -> clue:string -> version:int -> (int * Proof.path) option
(** [(jsn, path)] for the [version]-th state transition of [clue];
    [None] if out of range. *)

val verify_state_update : t -> clue:string -> tx:Hash.t -> Proof.path -> bool
(** Check a state-transition leaf against the current world-state root. *)

(** {1 Time anchoring (when)} *)

val anchor_via_t_ledger : t -> (Journal.t, T_ledger.error) result
(** Submit the current commitment to the T-Ledger under Protocol 4 and
    record a time journal referencing the accepted entry. *)

val anchor_via_tsa : t -> Journal.t
(** Two-way pegging (Protocol 3) straight to the TSA pool: endorse the
    commitment and anchor the signed token back as a time journal.
    @raise Invalid_argument if the ledger has no TSA pool. *)

val time_journals : t -> Journal.t list
val t_ledger : t -> T_ledger.t option
val tsa_pool : t -> Tsa.pool option

(** {1 Mutation: purge (§III-A2)} *)

type purge_request = {
  upto_jsn : int;  (** erase journals with jsn < upto_jsn *)
  survivors : int list;  (** milestone jsns copied to the survival stream *)
  erase_fam_nodes : bool;  (** also forget fam interior digests *)
}

val affected_members : t -> upto_jsn:int -> Roles.member list
(** Members owning journals below the purge point — the required signer
    set of Prerequisite 1 (plus the DBA). *)

val purge :
  t ->
  request:purge_request ->
  signers:(Roles.member * Ecdsa.private_key) list ->
  (Journal.t, string) result
(** Validates Prerequisite 1, writes the pseudo-genesis and the
    doubly-linked purge journal, erases storage, optionally prunes fam.
    Returns the purge journal. *)

val pseudo_genesis : t -> Journal.t option
(** Latest pseudo-genesis (Protocol 1's verification start), if any. *)

val survival_jsns : t -> int list
val read_survivor : t -> int -> bytes option

(** {1 Mutation: occult (§III-A3)} *)

type occult_mode = Sync | Async

val occult :
  t ->
  target_jsn:int ->
  mode:occult_mode ->
  signers:(Roles.member * Ecdsa.private_key) list ->
  reason:string ->
  (Journal.t, string) result
(** Validates Prerequisite 2 (DBA + regulator), appends the occult journal
    with the retained hash, marks the occult bitmap; [Sync] erases the
    payload immediately, [Async] defers to {!reorganize}. *)

val occult_by_clue :
  t ->
  clue:string ->
  mode:occult_mode ->
  signers:(Roles.member * Ecdsa.private_key) list ->
  reason:string ->
  (Journal.t list, string) result
(** Occult every not-yet-occulted journal carrying the clue ("occult by
    clue", §III-A3).  Returns the occult journals appended. *)

val is_occulted : t -> int -> bool
val reorganize : t -> int
(** Physically erase async-occulted payloads; returns how many. *)

(** {1 Introspection} *)

val compact_storage : t -> int
(** Compact the journal stream, dropping slots erased by purge/occult;
    returns the number of reclaimed records.  Payload addresses are
    remapped transparently. *)

val stored_digests : t -> int
val verify_with_profile : t -> pub:Ecdsa.public_key -> Hash.t -> Ecdsa.signature -> bool

(** {1 Adversarial hooks (tests and attack demos only)}

    These mutate ledger state the way a malicious LSP or a compromised
    server would (threat-A/B/C of §II-B), so that tests can confirm the
    audit catches each tampering class.  Production code must never call
    them. *)

module Unsafe : sig
  val rewrite_payload : t -> jsn:int -> bytes -> unit
  (** Overwrite a committed journal's payload in place, leaving hashes and
      signatures untouched (naive threat-B). *)

  val rewrite_payload_consistent : t -> jsn:int -> bytes -> unit
  (** Overwrite the payload {e and} recompute the request hash — what an
      LSP colluding with storage can do, but without the client's key, so
      π_c no longer verifies (threat-C). *)

  val forge_server_ts : t -> jsn:int -> int64 -> unit
  (** Rewrite a journal's server timestamp (threat-B on time). *)
end

(** {1 Persistence}

    Durable snapshots of the whole ledger: journals (with their retained
    accumulator leaves, so occulted/purged content stays erased), the
    block chain (timestamps preserved so block hashes — and therefore
    receipts — survive the round trip), membership, and the survival
    stream.  Every record of every file is CRC-32 framed
    ({!Ledger_storage.Framing}), so a load can tell a {e torn tail} of the
    journals file (crash mid-save; the intact prefix is recoverable) from
    a {e corrupted record} (refused, naming the first bad jsn or the
    damaged file and byte).  [load] replays the journals through the same
    commit path and then checks every recorded checkpoint field — name,
    size, commitment, clue root, block count and pseudo-genesis — so a
    framing-valid but tampered snapshot is still refused. *)

val save : t -> dir:string -> unit
(** Write the snapshot in the {!Snapshot} format, which owns its bytes. *)

type load_report = {
  replayed : int;  (** journals actually replayed *)
  declared_size : int;  (** size recorded in [meta.ldb] *)
  torn_tail : bool;  (** a partial trailing record was discarded *)
  dropped_bytes : int;  (** bytes discarded after the last intact record *)
  blocks_dropped : int;
      (** sealed blocks discarded because they covered lost journals *)
  checkpoint : [ `Verified | `Partial ];
      (** [`Verified]: the replay reproduced the recorded commitment and
          clue root.  [`Partial]: a torn tail was recovered, so the
          checkpoints cannot reproduce; the prefix is internally
          consistent (every leaf re-derived) but must be re-verified
          against an external anchor before it is trusted. *)
}

val load :
  ?config:config ->
  ?t_ledger:T_ledger.t ->
  ?tsa:Tsa.pool ->
  clock:Clock.t ->
  dir:string ->
  unit ->
  (t, string) result
(** Strict load: any damage — torn tail included — is refused with a
    diagnostic naming the first bad jsn or the damaged file.  Replay
    rebuilds every index through the commit path's chunk installer, the
    query index included, so the loaded ledger answers range queries
    like the one saved. *)

val load_verbose :
  ?config:config ->
  ?t_ledger:T_ledger.t ->
  ?tsa:Tsa.pool ->
  ?recover:bool ->
  clock:Clock.t ->
  dir:string ->
  unit ->
  (t * load_report, string) result
(** Like {!load} but returns the recovery report.  With [~recover:true] a
    torn tail of the journals file (crash during save) is truncated back
    to the last intact record — on disk too — and the prefix is
    replayed; any damage to another file, and silently corrupted
    records (bad checksum on a complete frame, undecodable content, leaf
    mismatch) are {e always} refused with a first-bad-jsn diagnostic,
    recovery mode or not. *)
