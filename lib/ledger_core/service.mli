(** The client ⇄ proxy ⇄ server protocol of Fig. 1, over a byte-level
    message boundary.

    {!Client} builds signed, encoded requests and interprets encoded
    responses without ever holding a reference to the server's state;
    {!handle} is the whole server: decode → dispatch → encode.  Tests and
    examples drive the two ends through [bytes] alone, proving that every
    proof object survives the wire. *)

open Ledger_crypto
open Ledger_cmtree
open Ledger_merkle

type request =
  | Append of {
      member_id : Hash.t;
      payload : bytes;
      clues : string list;
      client_ts : int64;
      nonce : int;
      signature : Ecdsa.signature;
    }
  | Append_batch of {
      member_id : Hash.t;
      entries : (bytes * string list * int64 * int * Ecdsa.signature) list;
          (** (payload, clues, client_ts, nonce, signature) per entry *)
    }
  | Get_payload of { jsn : int }
  | Get_proof of { jsn : int }
  | Get_receipt of { jsn : int }
  | Get_clue_proof of { clue : string; first : int option; last : int option }
  | Get_commitment
  | Get_extension of { old_size : int }
  | Get_journal of { jsn : int }
  | Get_block of { height : int }
  | Get_members
  | Get_checkpoint
  | Get_proof_bundle of { jsn : int }
      (** existence proof {e and} the commitment it verifies against,
          snapshotted atomically under one dispatch — so a client
          verifying while other clients append never races the root *)
  | Get_clue_bundle of { clue : string; first : int option; last : int option }
      (** clue lineage proof with the CM-Tree root it hashes to, same
          atomic-snapshot contract as {!request.Get_proof_bundle} *)
  | Query_page of {
      spec : Ledger_query.Range_query.spec;
      window : Ledger_query.Range_query.window option;
      after : string option;
      page_size : int;
      pin : int option;
    }
      (** one page of a verifiable range/prefix scan (DESIGN.md §16);
          [after] is the cursor returned by the previous page.  [pin]
          (the [epoch] of a previous {!response.Query_page_r}) asks the
          server to answer only from that same snapshot: if a write has
          republished the view since, the reply is a typed
          {!response.Stale_r} refusal instead of a silently
          cross-snapshot page *)

type response =
  | Receipt_r of Receipt.t
  | Receipts_r of Receipt.t list
      (** one receipt per {!Append_batch} entry, in submission order *)
  | Payload_r of bytes option
  | Proof_r of Fam.proof
  | Clue_proof_r of Cm_tree.clue_proof option
  | Commitment_r of { commitment : Hash.t; size : int }
  | Extension_r of Fam.extension_proof
  | Journal_r of { tx : Hash.t; encoded : bytes }
      (** retained leaf + {!Journal_codec} encoding (payload reflects
          occult/purge erasure) *)
  | Block_r of Block.t
  | Members_r of (string * string * bytes) list
      (** (name, role tag, 64-byte public key) *)
  | Checkpoint_r of Snapshot.checkpoint
      (** the record a snapshot's [meta.ldb] holds; {!Replica} stages it
          as it stands *)
  | Proof_bundle_r of { proof : Fam.proof; commitment : Hash.t; size : int }
      (** the proof is valid against exactly this [commitment]/[size];
          trust in the commitment itself still comes from out-of-band
          anchors (T-Ledger, gossip) — the bundle only removes the
          fetch-proof/fetch-root race under concurrent appends *)
  | Clue_bundle_r of { proof : Cm_tree.clue_proof option; clue_root : Hash.t }
  | Query_page_r of {
      page : Ledger_query.Range_query.page;
      query_root : Hash.t;
      commitment : Hash.t;
      size : int;
      epoch : int;
    }
      (** the page verifies against exactly this [query_root], snapshotted
          in the same dispatch; [commitment]/[size] pin the journal state
          the index was derived from (same trust shape as
          {!response.Proof_bundle_r}).  [epoch] identifies the snapshot;
          feed it back as {!request.Query_page}[.pin] on follow-up pages
          for a single-snapshot multi-page scan *)
  | Stale_r of { pinned : int; current : int }
      (** retryable refusal: the [pinned] snapshot epoch is no longer
          [current] — restart the scan, or accept the new epoch *)
  | Error_r of string

val encode_request : request -> bytes
val decode_request : bytes -> request option
val encode_response : response -> bytes
val decode_response : bytes -> response option

val w_receipt : Wire.writer -> Receipt.t -> unit

val handle : Ledger.t -> bytes -> bytes
(** The server: malformed input or failed dispatch yields an encoded
    {!Error_r}; this function never raises.  Appends commit through the
    ledger; every other request is answered from the current
    {!Ledger.read_view}, exactly as {!handle_read} answers it. *)

val error_of_exn : exn -> string
(** The refusal message for an exception raised while answering a
    request: bad input ([Invalid_argument], [Failure], [Not_found]) or
    failed storage ([Sys_error], {!Ledger_storage.Stream_store.Read_error}).
    Any other exception is a bug: it becomes ["internal error: <exn>"]
    and bumps [service_internal_errors_total], never a re-raise.
    {!handle}, {!handle_read}, the sharded service and [Net_server]'s
    dispatch all refuse through this one mapping. *)

(** {1 Lock-free read path}

    Every request is either a {e read} (answerable from an immutable
    {!Ledger.Read_view.t} without any lock) or a {e mutation} (must be
    serialized by the caller).  Reads have one implementation, served
    from the snapshot by both entry points.  Two consequences are
    deliberate: [Get_payload]/[Get_journal] read the pinned stream and
    charge no simulated storage latency (unlike the in-process
    {!Ledger.payload}), and [Get_receipt] is signed with the pure crypto
    profile at the view's {!Ledger.Read_view.published_at} rather than at
    the clock's current reading. *)

val mutation_frame : bytes -> int -> bool
(** [mutation_frame b pos]: the request encoded from [pos] of [b] is an
    {!request.Append} or {!request.Append_batch}, told by its tag byte
    alone, without a decode.  A malformed frame may pass as either;
    {!handle} refuses it with the same bytes. *)

val handle_read : Ledger.t -> bytes -> bytes option
(** Serve a read (or a malformed frame) from the current published
    snapshot — safe to call from any domain, concurrently with a writer.
    Returns [None] iff the frame decodes to a mutation, which the caller
    must route through {!handle} under its write serialization; otherwise
    the same bytes {!handle} would answer.  Never raises. *)

(** Client-side request building and response interpretation. *)
module Client : sig
  type t

  val create :
    ?crypto:Crypto_profile.t ->
    ledger_uri:string ->
    member:Roles.member ->
    priv:Ecdsa.private_key ->
    unit ->
    t
  (** [crypto] (default {!Crypto_profile.Real}) selects how π_c is
      produced: a client of a simulated-profile service must sign under
      the same profile for the service's signature check to accept — see
      {!Crypto_profile.sign_pure}. *)

  val make_append : t -> ?clues:string list -> client_ts:int64 -> bytes -> bytes
  (** Sign the request locally (π_c) and encode it.  The nonce is
      maintained per client. *)

  val make_append_batch : t -> (bytes * string list * int64) list -> bytes
  (** Sign each [(payload, clues, client_ts)] entry under the client's
      nonce sequence and encode one {!Append_batch} request. *)

  val make_get_proof : jsn:int -> bytes
  val make_get_payload : jsn:int -> bytes
  val make_get_receipt : jsn:int -> bytes
  val make_get_clue_proof : clue:string -> ?first:int -> ?last:int -> unit -> bytes
  val make_get_commitment : unit -> bytes
  val make_get_extension : old_size:int -> bytes
  val make_get_journal : jsn:int -> bytes
  val make_get_block : height:int -> bytes
  val make_get_members : unit -> bytes
  val make_get_checkpoint : unit -> bytes
  val make_get_proof_bundle : jsn:int -> bytes

  val make_get_clue_bundle :
    clue:string -> ?first:int -> ?last:int -> unit -> bytes

  val make_query_page :
    spec:Ledger_query.Range_query.spec ->
    ?window:Ledger_query.Range_query.window ->
    ?after:string ->
    ?pin:int ->
    page_size:int ->
    unit ->
    bytes
  (** [pin] repeats the [epoch] of an earlier page so the whole scan is
      served from one snapshot (see {!request.Query_page}). *)

  val parse : bytes -> response option
end
