open Ledger_crypto
open Ledger_storage

type stats = {
  requests : int;
  retries : int;
  resumed_from : int;
  restarted : bool;
}

type error =
  | Transport_failed of Transport.error
  | Refused of string
  | Protocol of string
  | Load_failed of string

let error_to_string = function
  | Transport_failed e -> Transport.error_to_string e
  | Refused msg -> "replica: service refused: " ^ msg
  | Protocol msg -> "replica: " ^ msg
  | Load_failed msg -> "replica: replay refused: " ^ msg

(* Count intact staged journal frames from an earlier, interrupted pull
   and truncate any damaged tail, so the next pull resumes from the last
   journal that survived on disk instead of starting over. *)
let staged_journals path =
  if not (Sys.file_exists path) then 0
  else begin
    let n, ending =
      Snapshot.fold_journals path ~init:0 (fun n ~tx:_ _ -> Some (n + 1))
    in
    if ending.Framing.stop <> Framing.End then
      Framing.truncate_file path ~keep:ending.Framing.offset;
    n
  end

(* Pre-replay π_c screen: decode every staged journal frame and check
   its recorded client signature against the fetched membership, purely
   (no clock) and across the pool.  This rejects a corrupted stage
   before {!Ledger.load} starts replaying trees; journals whose signer
   is not in the membership (LSP/system journals) and frames the codec
   refuses are left for the loader's authoritative verdict.  Returns the
   lowest failing jsn. *)
let staged_sig_precheck ~pool ~crypto ~members path =
  if not (Sys.file_exists path) then Ok ()
  else begin
    let pubs = Hashtbl.create 16 in
    List.iter
      (fun (_name, _role, pub_bytes) ->
        match Ecdsa.public_key_of_bytes pub_bytes with
        | Some pub -> Hashtbl.replace pubs (Ecdsa.public_key_id pub) pub
        | None -> ())
      members;
    let frames, _ =
      Snapshot.fold_journals path ~init:[] (fun frames ~tx:_ encoded ->
          Some (encoded :: frames))
    in
    let encoded = Array.of_list (List.rev frames) in
    let first_bad = Atomic.make max_int in
    let note jsn =
      let rec go () =
        let cur = Atomic.get first_bad in
        if jsn < cur && not (Atomic.compare_and_set first_bad cur jsn) then
          go ()
      in
      go ()
    in
    Ledger_par.Domain_pool.parallel_for pool ~label:"replica_pi_c"
      ~min_chunk:4 ~n:(Array.length encoded) (fun i ->
        match Journal_codec.decode encoded.(i) with
        | None -> ()
        | Some j -> (
            match j.Journal.client_sig with
            | None -> ()
            | Some s -> (
                match Hashtbl.find_opt pubs j.Journal.client_id with
                | None -> ()
                | Some pub ->
                    if
                      not
                        (Crypto_profile.check crypto ~pub
                           j.Journal.request_hash s)
                    then note j.Journal.jsn)));
    match Atomic.get first_bad with
    | jsn when jsn = max_int -> Ok ()
    | jsn ->
        Error (Printf.sprintf "staged journal %d: bad client signature" jsn)
  end

let pull_verbose ~transport ?(policy = Transport.default_policy)
    ?(config = Ledger.default_config) ?t_ledger ?tsa ?(resume = true)
    ?(pool = Ledger_par.Domain_pool.default ()) ~clock ~scratch_dir () =
  Ledger_obs.Metrics.incr "replica_pulls_total";
  let requests = ref 0 in
  let retries = ref 0 in
  let rpc decode encoded =
    incr requests;
    Ledger_obs.Metrics.incr "replica_requests_total";
    match
      Transport.request_expect ~policy ~seed:!requests
        ~on_retry:(fun ~attempt:_ ~reason:_ ->
          incr retries;
          Ledger_obs.Metrics.incr "replica_retries_total")
        ~clock ~decode transport encoded
    with
    | Ok v -> Ok v
    | Error (Transport.Refused msg) -> Error (Refused msg)
    | Error (Transport.Transport e) -> Error (Transport_failed e)
  in
  let ( let* ) = Result.bind in
  let rec attempt ~resume ~restarted =
    (* 1. the announced checkpoint pins what we must reproduce *)
    let* checkpoint =
      rpc
        (function Service.Checkpoint_r c -> Some c | _ -> None)
        (Service.Client.make_get_checkpoint ())
    in
    let { Snapshot.name; size; block_count; _ } = checkpoint in
    if name <> config.Ledger.name then
      Error
        (Protocol
           (Printf.sprintf "service is '%s' but config says '%s'" name
              config.Ledger.name))
    else begin
      if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755;
      let journals_path = Filename.concat scratch_dir Snapshot.journals_file in
      let resumed_from =
        if not resume then begin
          if Sys.file_exists journals_path then Sys.remove journals_path;
          0
        end
        else begin
          let staged = staged_journals journals_path in
          if staged > size then begin
            (* the staged prefix is longer than the service's ledger: stale
               or foreign staging, start over *)
            Sys.remove journals_path;
            0
          end
          else staged
        end
      in
      let write = Snapshot.write ~dir:scratch_dir in
      (* 2. membership *)
      let* members =
        rpc
          (function Service.Members_r m -> Some m | _ -> None)
          (Service.Client.make_get_members ())
      in
      write Snapshot.members_file (fun oc ->
          List.iter (Snapshot.output_member oc ~cert:None) members);
      (* 3. every journal not already staged, with its retained leaf.
         Frames are Snapshot journal frames, so the loader replays and
         re-verifies them; an interrupted loop leaves a resumable
         prefix. *)
      let fetch_journals () =
        let rec go jsn =
          if jsn >= size then Ok ()
          else
            let* tx, encoded =
              rpc
                (function
                  | Service.Journal_r { tx; encoded } -> Some (tx, encoded)
                  | _ -> None)
                (Service.Client.make_get_journal ~jsn)
            in
            write ~append:true Snapshot.journals_file (fun oc ->
                Snapshot.output_journal oc ~tx encoded);
            go (jsn + 1)
        in
        go resumed_from
      in
      let* () = fetch_journals () in
      (* 4. every sealed block *)
      let fetch_blocks oc =
        let rec go height =
          if height >= block_count then Ok ()
          else
            let* b =
              rpc
                (function Service.Block_r b -> Some b | _ -> None)
                (Service.Client.make_get_block ~height)
            in
            Snapshot.output_block oc b;
            go (height + 1)
        in
        go 0
      in
      let* () = write Snapshot.blocks_file fetch_blocks in
      (* 5. the checkpoint as served; the loader re-derives everything
         and compares against it *)
      write Snapshot.meta_file (fun oc ->
          Snapshot.output_checkpoint oc checkpoint);
      write Snapshot.survivors_file (fun _ -> () (* not replicated *));
      match
        (* π_c screen before any replay state is built; a poisoned
           resumed stage heals exactly like a failed load below *)
        match
          staged_sig_precheck ~pool ~crypto:config.Ledger.crypto ~members
            journals_path
        with
        | Ok () -> Ledger.load ~config ?t_ledger ?tsa ~clock ~dir:scratch_dir ()
        | Error msg -> Error msg
      with
      | Ok ledger ->
          if resumed_from > 0 then
            Ledger_obs.Metrics.incr "replica_resumed_journals_total"
              ~by:resumed_from;
          if restarted then Ledger_obs.Metrics.incr "replica_restarts_total";
          Ok
            ( ledger,
              { requests = !requests; retries = !retries; resumed_from;
                restarted } )
      | Error msg when resumed_from > 0 ->
          (* The staged prefix no longer matches what the service serves
             (rewritten history, or a poisoned stage).  Heal by discarding
             the stage and pulling once from scratch; if that also fails,
             the refusal stands. *)
          ignore msg;
          Sys.remove journals_path;
          attempt ~resume:false ~restarted:true
      | Error msg -> Error (Load_failed msg)
    end
  in
  try attempt ~resume ~restarted:false
  with Sys_error msg -> Error (Load_failed ("staging I/O: " ^ msg))
