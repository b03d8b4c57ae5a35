open Ledger_crypto
open Ledger_storage
open Ledger_core
open Ledger_obs

type fleet = {
  name : string;
  shards : Ledger.t array;
  super : Super_root.sealed option;
  stats : Replica.stats array;
}

type error =
  | Topology of string
  | Fleet_transport of Transport.error
  | Shard of { shard : int; error : Replica.error }
  | Super_root_mismatch of string
  | Equivocation of Gossip.fork_evidence

let error_to_string = function
  | Topology msg -> "topology: " ^ msg
  | Fleet_transport e -> Transport.error_to_string e
  | Shard { shard; error } ->
      Printf.sprintf "shard %d: %s" shard (Replica.error_to_string error)
  | Super_root_mismatch msg -> "super-root mismatch: " ^ msg
  | Equivocation ev -> Gossip.fork_to_string ev

let shard_transport transport shard : Transport.t =
 fun req ->
  let resp =
    transport
      (Sharded_service.encode_request
         (Sharded_service.To_shard { shard; inner = req }))
  in
  match Sharded_service.decode_response resp with
  | Some (Sharded_service.From_shard { inner; _ }) -> inner
  | Some (Sharded_service.Error_r msg) ->
      (* surface the dispatcher's refusal as a Service-level error so
         Replica's typed handling sees it *)
      Service.encode_response (Service.Error_r msg)
  | _ -> resp

(* One fleet-level request outside the Replica machinery.  Transport's
   typed retry loop decodes Service responses, not sharded frames, so
   the same policy (attempts, backoff against the simulated clock) is
   replayed here at the raw byte level.  Exhaustion is a typed
   {!Transport.error} carrying the attempt count — never the last raw
   failure string alone. *)
let fleet_request ?backoff_rng ~transport ~policy ~clock req =
  let max_attempts = max 1 policy.Transport.max_attempts in
  let rec go attempt =
    let outcome =
      match transport req with
      | resp -> (
          match Sharded_service.decode_response resp with
          | Some r -> Ok r
          | None -> Error "undecodable fleet response")
      | exception Transport.Timeout msg -> Error ("timeout: " ^ msg)
    in
    match outcome with
    | Ok r -> Ok r
    | Error _ when attempt < max_attempts ->
        Clock.advance_ms clock
          (Transport.drawn_backoff_ms policy ~seed:0 ~attempt ~backoff_rng);
        go (attempt + 1)
    | Error reason ->
        Metrics.incr "transport_failures_total";
        Error { Transport.attempts = attempt; reason }
  in
  go 1

let validate_fleet ~announced (replicas : Ledger.t array) =
  match announced with
  | None -> Ok None
  | Some (sealed : Super_root.sealed) ->
      let n = Array.length sealed.Super_root.shard_roots in
      if n <> Array.length replicas then
        Error
          (Printf.sprintf "sealed epoch covers %d shards, pulled %d" n
             (Array.length replicas))
      else begin
        let bad = ref None in
        Array.iteri
          (fun i replica ->
            if !bad = None then begin
              let want_root = sealed.Super_root.shard_roots.(i) in
              let want_size = sealed.Super_root.shard_sizes.(i) in
              if Ledger.size replica <> want_size then
                bad :=
                  Some
                    (Printf.sprintf
                       "shard %d: replica has %d journals, sealed size is %d"
                       i (Ledger.size replica) want_size)
              else if not (Hash.equal (Ledger.commitment replica) want_root)
              then
                bad :=
                  Some
                    (Printf.sprintf
                       "shard %d: replica commitment diverges from sealed root"
                       i)
            end)
          replicas;
        match !bad with Some msg -> Error msg | None -> Ok (Some sealed)
      end

(* Fetch the service's signed announcement for the pulled epoch and fold
   it into the gossip peer.  Forked evidence fails the pull — a fleet
   whose service is provably equivocating is refused, not returned.
   Announcement fetch failures are non-fatal (gossip is best-effort);
   a missing announcement for a sealed epoch is suspicious but the
   super-root validation above already bound the bytes. *)
let gossip_check ?backoff_rng ~transport ~policy ~clock ~gossip
    (super : Super_root.sealed option) =
  match (gossip, super) with
  | None, _ | _, None -> Ok ()
  | Some peer, Some sealed -> (
      match
        fleet_request ?backoff_rng ~transport ~policy ~clock
          Sharded_service.(
            encode_request
              (Get_announcement { epoch = Some sealed.Super_root.epoch }))
      with
      | Error _ | Ok (Sharded_service.Error_r _) -> Ok ()
      | Ok (Sharded_service.Announcement_r None) -> Ok ()
      | Ok (Sharded_service.Announcement_r (Some ann)) -> (
          match Gossip.observe peer ann with
          | Gossip.Forked ev -> Error (Equivocation ev)
          | Gossip.Fresh | Gossip.Confirmed | Gossip.Rejected _ -> Ok ())
      | Ok _ -> Ok ())

let pull_all ~transport ?(policy = Transport.default_policy) ?config
    ?(resume = true) ?(pool = Ledger_par.Domain_pool.default ()) ?gossip
    ?backoff_rng ~clock ~scratch_dir () =
  let sp = Trace.enter "sharded_replica.pull_all" in
  let finish r =
    Trace.exit sp;
    r
  in
  match
    fleet_request ?backoff_rng ~transport ~policy ~clock
      Sharded_service.(encode_request Get_topology)
  with
  | Error e -> finish (Error (Fleet_transport e))
  | Ok (Sharded_service.Error_r msg) -> finish (Error (Topology msg))
  | Ok (Sharded_service.Topology_r { name; shards }) -> (
      let cfg =
        match config with
        | Some c -> c
        | None ->
            {
              Sharded_ledger.base =
                { Ledger.default_config with Ledger.name };
              shards;
            }
      in
      if cfg.Sharded_ledger.shards <> shards then
        finish
          (Error
             (Topology
                (Printf.sprintf "config says %d shards, service announces %d"
                   cfg.Sharded_ledger.shards shards)))
      else if cfg.Sharded_ledger.base.Ledger.name <> name then
        finish
          (Error
             (Topology
                (Printf.sprintf "config names %S, service announces %S"
                   cfg.Sharded_ledger.base.Ledger.name name)))
      else begin
        if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755;
        let replicas = Array.make shards None in
        let stats = Array.make shards None in
        let failed = ref None in
        Array.iteri
          (fun i () ->
            if !failed = None then begin
              let sub = Filename.concat scratch_dir (Printf.sprintf "shard-%d" i) in
              match
                (* shard pulls stay sequential — they share one
                   transport (seeded, deterministic retries) and one
                   clock — but each pull fans its staged π_c pre-check
                   across [pool] *)
                Replica.pull_verbose ~transport:(shard_transport transport i)
                  ~policy
                  ~config:(Sharded_ledger.shard_config cfg i)
                  ~resume ~pool ~clock ~scratch_dir:sub ()
              with
              | Ok (ledger, st) ->
                  replicas.(i) <- Some ledger;
                  stats.(i) <- Some st;
                  Metrics.incr "sharded_replica_shards_pulled_total"
              | Error e -> failed := Some (Shard { shard = i; error = e })
            end)
          (Array.make shards ());
        match !failed with
        | Some e -> finish (Error e)
        | None -> (
            let replicas = Array.map Option.get replicas in
            let stats = Array.map Option.get stats in
            match
              fleet_request ?backoff_rng ~transport ~policy ~clock
                Sharded_service.(encode_request (Get_super_root { epoch = None }))
            with
            | Error e -> finish (Error (Fleet_transport e))
            | Ok (Sharded_service.Error_r msg) -> finish (Error (Topology msg))
            | Ok (Sharded_service.Super_root_r announced) -> (
                match validate_fleet ~announced replicas with
                | Error msg -> finish (Error (Super_root_mismatch msg))
                | Ok super -> (
                    match
                      gossip_check ?backoff_rng ~transport ~policy ~clock
                        ~gossip super
                    with
                    | Error e -> finish (Error e)
                    | Ok () ->
                        finish (Ok { name; shards = replicas; super; stats })))
            | Ok _ ->
                finish (Error (Topology "unexpected super-root response")))
      end)
  | Ok _ -> finish (Error (Topology "unexpected topology response"))
