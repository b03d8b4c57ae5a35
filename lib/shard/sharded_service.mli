(** The routed fleet protocol: one byte-level endpoint for N shards.

    A thin envelope over {!Ledger_core.Service}: shard-local requests
    travel inside {!request.To_shard} / {!response.From_shard} frames
    (the inner bytes are ordinary [Service] messages, so every existing
    proof object survives this wire unchanged), while fleet-level
    operations — topology discovery, epoch sealing, super-root and
    composed-proof retrieval — are first-class messages.

    {!request.Routed_append} lets a sender omit the shard id: the
    dispatcher re-runs the public placement function on the enclosed
    append.  Placement integrity is end-to-end — the client signed the
    request for the {e owning} shard's URI, so a dispatcher that routes
    it anywhere else has the append rejected by that shard's π_c
    check. *)

open Ledger_crypto

type request =
  | To_shard of { shard : int; inner : bytes }
      (** [inner] is an encoded {!Ledger_core.Service.request} *)
  | Routed_append of { inner : bytes }
      (** an encoded [Append] (or single-shard [Append_batch]); the
          dispatcher derives the owning shard from the entry's clues *)
  | Get_topology
  | Seal_epoch
  | Get_super_root of { epoch : int option }  (** [None] = latest *)
  | Get_sharded_proof of { shard : int; jsn : int }
  | Get_announcement of { epoch : int option }
      (** the service-signed epoch announcement ([None] = latest) —
          gossip peers cross-check these for equivocation *)
  | Query_scatter of {
      spec : Ledger_query.Range_query.spec;
      window : Ledger_query.Range_query.window option;
      page_size : int;
    }
      (** fan a verifiable range/prefix scan out to every shard; the
          response carries each shard's full pagination and proofs for
          {!Sharded_query.merge} *)

type response =
  | From_shard of { shard : int; inner : bytes }
      (** [inner] is an encoded {!Ledger_core.Service.response} *)
  | Topology_r of { name : string; shards : int }
  | Sealed_r of Super_root.sealed
  | Super_root_r of Super_root.sealed option
  | Sharded_proof_r of Sharded_ledger.sharded_proof
  | Announcement_r of Gossip.announcement option
  | Query_scatter_r of Sharded_query.scatter
  | Error_r of string

val encode_request : request -> bytes
val decode_request : bytes -> request option
val decode_response : bytes -> response option

val handle : Sharded_ledger.t -> bytes -> bytes
(** The fleet dispatcher: decode → route → delegate to the owning
    shard's {!Ledger_core.Service.handle} (or serve the fleet-level
    request) → encode.  Never raises; malformed input or a refused
    epoch seal yields an encoded {!response.Error_r}. *)

val handle_read : Sharded_ledger.t -> bytes -> bytes option
(** The read-only half of {!handle}: [None] for mutations, otherwise the
    answer {!handle} gives.  Every read is served from published
    snapshots — the shards' {!Ledger_core.Ledger.Read_view}s and the
    sealed-epoch history — so this needs no lock and is safe from any
    domain, concurrently with appends and seals.  Never raises. *)

(** Client-side routing, signing and response interpretation.  Holds one
    {!Ledger_core.Service.Client} per shard — each shard is a distinct
    signing domain (its own URI and nonce sequence). *)
module Client : sig
  type t

  val create :
    config:Sharded_ledger.config ->
    member:Ledger_core.Roles.member ->
    priv:Ecdsa.private_key ->
    unit ->
    t

  val make_append :
    t -> ?clues:string list -> client_ts:int64 -> bytes -> int * bytes
  (** Sign for the owning shard and wrap in {!request.Routed_append};
      returns [(shard, encoded request)]. *)

  val make_to_shard : shard:int -> bytes -> bytes
  (** Wrap any encoded {!Ledger_core.Service} request for one shard. *)

  val make_get_topology : unit -> bytes
  val make_seal_epoch : unit -> bytes
  val make_get_super_root : ?epoch:int -> unit -> bytes
  val make_get_sharded_proof : shard:int -> jsn:int -> bytes
  val make_get_announcement : ?epoch:int -> unit -> bytes

  val make_query_scatter :
    spec:Ledger_query.Range_query.spec ->
    ?window:Ledger_query.Range_query.window ->
    page_size:int ->
    unit ->
    bytes

  val parse : bytes -> response option

  val parse_from_shard :
    bytes -> (int * Ledger_core.Service.response) option
  (** Unwrap a {!response.From_shard} frame and parse the inner
      {!Ledger_core.Service} response. *)
end
