open Ledger_crypto
open Ledger_core
open Ledger_obs

type request =
  | To_shard of { shard : int; inner : bytes }
  | Routed_append of { inner : bytes }
  | Get_topology
  | Seal_epoch
  | Get_super_root of { epoch : int option }
  | Get_sharded_proof of { shard : int; jsn : int }
  | Get_announcement of { epoch : int option }
  | Query_scatter of {
      spec : Ledger_query.Range_query.spec;
      window : Ledger_query.Range_query.window option;
      page_size : int;
    }

type response =
  | From_shard of { shard : int; inner : bytes }
  | Topology_r of { name : string; shards : int }
  | Sealed_r of Super_root.sealed
  | Super_root_r of Super_root.sealed option
  | Sharded_proof_r of Sharded_ledger.sharded_proof
  | Announcement_r of Gossip.announcement option
  | Query_scatter_r of Sharded_query.scatter
  | Error_r of string

let w_request w req =
  match req with
  | To_shard { shard; inner } ->
      Wire.w_u8 w 1;
      Wire.w_int w shard;
      Wire.w_bytes w inner
  | Routed_append { inner } ->
      Wire.w_u8 w 2;
      Wire.w_bytes w inner
  | Get_topology -> Wire.w_u8 w 3
  | Seal_epoch -> Wire.w_u8 w 4
  | Get_super_root { epoch } ->
      Wire.w_u8 w 5;
      Wire.w_option w (Wire.w_int w) epoch
  | Get_sharded_proof { shard; jsn } ->
      Wire.w_u8 w 6;
      Wire.w_int w shard;
      Wire.w_int w jsn
  | Get_announcement { epoch } ->
      Wire.w_u8 w 7;
      Wire.w_option w (Wire.w_int w) epoch
  | Query_scatter { spec; window; page_size } ->
      Wire.w_u8 w 8;
      Ledger_query.Range_query.w_spec w spec;
      Wire.w_option w (Ledger_query.Range_query.w_window w) window;
      Wire.w_int w page_size

let encode_request req = Wire.encode (fun w -> w_request w req)

let decode_request b =
  Wire.decode b (fun r ->
      match Wire.r_u8 r with
      | 1 ->
          let shard = Wire.r_int r in
          let inner = Wire.r_bytes r in
          To_shard { shard; inner }
      | 2 -> Routed_append { inner = Wire.r_bytes r }
      | 3 -> Get_topology
      | 4 -> Seal_epoch
      | 5 -> Get_super_root { epoch = Wire.r_option r (fun () -> Wire.r_int r) }
      | 6 ->
          let shard = Wire.r_int r in
          let jsn = Wire.r_int r in
          Get_sharded_proof { shard; jsn }
      | 7 ->
          Get_announcement { epoch = Wire.r_option r (fun () -> Wire.r_int r) }
      | 8 ->
          let spec = Ledger_query.Range_query.r_spec r in
          let window =
            Wire.r_option r (fun () -> Ledger_query.Range_query.r_window r)
          in
          let page_size = Wire.r_int r in
          Query_scatter { spec; window; page_size }
      | _ -> raise Wire.Corrupt)

let w_response w resp =
  match resp with
  | Error_r msg ->
      Wire.w_u8 w 0;
      Wire.w_string w msg
  | From_shard { shard; inner } ->
      Wire.w_u8 w 1;
      Wire.w_int w shard;
      Wire.w_bytes w inner
  | Topology_r { name; shards } ->
      Wire.w_u8 w 2;
      Wire.w_string w name;
      Wire.w_int w shards
  | Sealed_r sealed ->
      Wire.w_u8 w 3;
      Super_root.w_sealed w sealed
  | Super_root_r sealed ->
      Wire.w_u8 w 4;
      Wire.w_option w (Super_root.w_sealed w) sealed
  | Sharded_proof_r proof ->
      Wire.w_u8 w 5;
      Sharded_ledger.w_sharded_proof w proof
  | Announcement_r ann ->
      Wire.w_u8 w 6;
      Wire.w_option w (Gossip.w_announcement w) ann
  | Query_scatter_r sc ->
      Wire.w_u8 w 7;
      Sharded_query.w_scatter w sc

let encode_response resp = Wire.encode (fun w -> w_response w resp)

let decode_response b =
  Wire.decode b (fun r ->
      match Wire.r_u8 r with
      | 0 -> Error_r (Wire.r_string r)
      | 1 ->
          let shard = Wire.r_int r in
          let inner = Wire.r_bytes r in
          From_shard { shard; inner }
      | 2 ->
          let name = Wire.r_string r in
          let shards = Wire.r_int r in
          Topology_r { name; shards }
      | 3 -> Sealed_r (Super_root.r_sealed r)
      | 4 ->
          Super_root_r (Wire.r_option r (fun () -> Super_root.r_sealed r))
      | 5 -> Sharded_proof_r (Sharded_ledger.r_sharded_proof r)
      | 6 ->
          Announcement_r (Wire.r_option r (fun () -> Gossip.r_announcement r))
      | 7 -> Query_scatter_r (Sharded_query.r_scatter r)
      | _ -> raise Wire.Corrupt)

(* The owning shard of an encoded append request, by the public
   placement function.  A batch must be single-shard on this wire. *)
let route_inner t inner =
  match Service.decode_request inner with
  | Some (Service.Append { payload; clues; _ }) ->
      Ok (Shard_router.route (Sharded_ledger.router t) ~clues ~payload)
  | Some (Service.Append_batch { entries; _ }) -> (
      let shards =
        List.map
          (fun (payload, clues, _, _, _) ->
            Shard_router.route (Sharded_ledger.router t) ~clues ~payload)
          entries
      in
      match shards with
      | [] -> Error "routed append: empty batch"
      | s :: rest ->
          if List.for_all (( = ) s) rest then Ok s
          else Error "routed append: batch spans shards (split per shard)")
  | Some _ -> Error "routed append: not an append request"
  | None -> Error "routed append: malformed inner request"

(* A mutation, told by tag bytes without a decode: [Routed_append] (2),
   [Seal_epoch] (4), or a [To_shard] (1) whose inner request — from
   byte 17, after the tag, the shard and the inner length — is one.  A
   malformed frame gets the same refusal on either path. *)
let mutation_frame b =
  Bytes.length b > 0
  &&
  match Bytes.get_uint8 b 0 with
  | 2 | 4 -> true
  | 1 -> Service.mutation_frame b 17
  | _ -> false

(* Every read arm is served from published snapshots (shard read views,
   the atomically published sealed history) or immutable identity, so
   the frames {!mutation_frame} passes are safe without the writer's
   lock.  A [To_shard] read is decoded once, by the shard's
   [Service.handle]. *)
let dispatch t = function
  | To_shard { shard; inner } ->
      if shard < 0 || shard >= Sharded_ledger.shard_count t then
        Error_r (Printf.sprintf "no such shard %d" shard)
      else
        From_shard
          { shard; inner = Service.handle (Sharded_ledger.shard t shard) inner }
  | Routed_append { inner } -> (
      match route_inner t inner with
      | Error msg -> Error_r msg
      | Ok shard ->
          From_shard
            { shard;
              inner = Service.handle (Sharded_ledger.shard t shard) inner })
  | Get_topology ->
      Topology_r
        {
          name = (Sharded_ledger.config t).Sharded_ledger.base.Ledger.name;
          shards = Sharded_ledger.shard_count t;
        }
  | Seal_epoch -> (
      match Sharded_ledger.seal_epoch t with
      | Ok sealed -> Sealed_r sealed
      | Error msg -> Error_r msg)
  | Get_super_root { epoch } -> (
      match epoch with
      | None -> Super_root_r (Sharded_ledger.latest t)
      | Some e -> Super_root_r (Sharded_ledger.epoch t e))
  | Get_sharded_proof { shard; jsn } -> (
      if shard < 0 || shard >= Sharded_ledger.shard_count t then
        Error_r (Printf.sprintf "no such shard %d" shard)
      else
        match Sharded_ledger.prove t ~shard ~jsn with
        | Ok proof -> Sharded_proof_r proof
        | Error msg -> Error_r msg)
  | Get_announcement { epoch } -> (
      match epoch with
      | None -> Announcement_r (Sharded_ledger.announce t)
      | Some e -> Announcement_r (Sharded_ledger.announce_epoch t e))
  | Query_scatter { spec; window; page_size } ->
      if page_size <= 0 || page_size > 65536 then Error_r "bad page_size"
      else Query_scatter_r (Sharded_query.scatter t ~spec ?window ~page_size ())

let respond t decoded =
  Metrics.incr "sharded_service_requests_total";
  let resp =
    match decoded with
    | None -> Error_r "malformed sharded request"
    | Some req -> (
        try dispatch t req with e -> Error_r (Service.error_of_exn e))
  in
  (match resp with
  | Error_r _ -> Metrics.incr "sharded_service_errors_total"
  | _ -> ());
  encode_response resp

let handle t b = respond t (decode_request b)

let handle_read t b = if mutation_frame b then None else Some (handle t b)

module Client = struct
  type t = {
    router : Shard_router.t;
    per_shard : Service.Client.t array;
  }

  let create ~config ~member ~priv () =
    let shards = config.Sharded_ledger.shards in
    {
      router = Shard_router.create ~shards;
      per_shard =
        Array.init shards (fun i ->
            Service.Client.create
              ~ledger_uri:("ledger://" ^ Sharded_ledger.shard_name config i)
              ~member ~priv ());
    }

  let route t ~clues ~payload = Shard_router.route t.router ~clues ~payload

  let make_append t ?(clues = []) ~client_ts payload =
    let shard = route t ~clues ~payload in
    let inner =
      Service.Client.make_append t.per_shard.(shard) ~clues ~client_ts payload
    in
    (shard, encode_request (Routed_append { inner }))

  let make_to_shard ~shard inner = encode_request (To_shard { shard; inner })
  let make_get_topology () = encode_request Get_topology
  let make_seal_epoch () = encode_request Seal_epoch

  let make_get_super_root ?epoch () =
    encode_request (Get_super_root { epoch })

  let make_get_sharded_proof ~shard ~jsn =
    encode_request (Get_sharded_proof { shard; jsn })

  let make_get_announcement ?epoch () =
    encode_request (Get_announcement { epoch })

  let make_query_scatter ~spec ?window ~page_size () =
    encode_request (Query_scatter { spec; window; page_size })

  let parse = decode_response

  let parse_from_shard b =
    match decode_response b with
    | Some (From_shard { shard; inner }) ->
        Option.map (fun r -> (shard, r)) (Service.Client.parse inner)
    | _ -> None
end
