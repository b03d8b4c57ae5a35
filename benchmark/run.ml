(* One benchmark run: set up a served ledger (several times, for
   [setup_s]), pull verified replicas of it (traced runs), drive the workload's
   warm-up and its open-loop and closed-loop rounds, verify every
   response off the clock, and report the end-to-end or (traced)
   per-layer metrics.  Every time is raw wall time. *)

open Ledger_storage
open Ledger_core
open Ledger_net
module Domain_pool = Ledger_par.Domain_pool
module Json = Ledger_bench_util.Json_out

let now = Unix.gettimeofday

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

type server = { child : Proc.child; port : int; loop : Loop.t }

let start_server env ~trace_dir ~trace =
  let args =
    [ "serve"; "--name"; env.Inputs.lname ]
    @ match trace_dir with Some d -> [ "--trace-dir"; d ] | None -> []
  in
  let child = Proc.spawn args in
  let is_port l = String.length l > 5 && String.sub l 0 5 = "port " in
  match Proc.read_until child is_port with
  | None ->
      Proc.kill_all ();
      failwith "server did not report its port"
  | Some l ->
      let port = int_of_string (String.sub l 5 (String.length l - 5)) in
      { child; port; loop = Loop.connect ~port ~n:Spec.connections ~trace }

let stop_server s =
  Loop.close s.loop;
  Proc.stop s.child

(* Spawn a server and upload the preload, pipelined on one connection so
   the commit order (and so every receipt) is the same on every setup. *)
let setup env (pre : Inputs.preload) ~trace_dir ~trace =
  let t0 = now () in
  let s = start_server env ~trace_dir ~trace in
  let items =
    Array.mapi
      (fun f frame ->
        { Inputs.op = Inputs.Write { batch = true; digests = pre.Inputs.digests.(f) };
          frame; primary = false; due = 0.; build_us = 0. })
      pre.Inputs.frames
  in
  let r = Loop.run s.loop ~conn_of:(fun _ -> 0) ~window:(Some max_int) items in
  let dt = now () -. t0 in
  let resps =
    Array.map
      (fun (sl : Loop.slot) ->
        match (sl.Loop.error, sl.Loop.resps) with
        | None, [ b ] -> b
        | Some e, _ -> failwith ("preload failed: " ^ e)
        | None, _ -> failwith "preload failed")
      r.Loop.slots
  in
  (s, resps, dt)

(* One verified replica pull of the preloaded ledger. *)
let catchup env (model : Check.model) ~port ~dir =
  rm_rf dir;
  mkdir_p dir;
  let t0 = now () in
  let ep = Net_transport.connect ~response_timeout_s:30. ~host:"127.0.0.1" ~port () in
  let res =
    Replica.pull_verbose ~transport:(Net_transport.transport ep) ~policy:Transport.no_retry
      ~config:{ Ledger.default_config with name = env.Inputs.lname; crypto = Crypto_profile.Real }
      ~pool:Domain_pool.sequential ~clock:(Clock.create ()) ~scratch_dir:dir ()
  in
  let dt = now () -. t0 in
  Net_transport.close ep;
  rm_rf dir;
  match res with
  | Error e -> raise (Check.Failed ("catchup: " ^ Replica.error_to_string e))
  | Ok (replica, stats) ->
      let n = Array.length model.Check.tx in
      if Ledger.size replica <> n then
        raise (Check.Failed (Printf.sprintf "catchup: replica holds %d of %d" (Ledger.size replica) n));
      Array.iteri
        (fun j tx ->
          if not (Ledger_crypto.Hash.equal (Ledger.tx_hash_of replica j) tx) then
            raise (Check.Failed (Printf.sprintf "catchup: replica jsn %d differs" j)))
        model.Check.tx;
      (dt, float_of_int stats.Replica.requests /. float_of_int n)

(* Client spans of a traced run, one JSON object per line: per op (id =
   client sequence number over all phases) an [op] span with [build],
   [verify] and one [rtt] span per request frame as children.  Times are
   whole microseconds since the epoch, as the server's spans. *)
let write_client_spans path runs verify_us =
  let oc = open_out path in
  let line fields =
    output_string oc (Json.to_string (Json.Obj fields));
    output_char oc '\n'
  in
  let us t = if Float.is_nan t then Json.Null else Json.Int (int_of_float (t *. 1e6)) in
  let base = ref 0 in
  List.iter
    (fun (phase, (r : Loop.result)) ->
      Array.iteri
        (fun i (s : Loop.slot) ->
          let id = Json.Int (!base + i) in
          let kind = Spec.kind_of_tag (Loop.tag_of_frame s.Loop.item.Inputs.frame) in
          line
            [ ("id", id); ("name", Json.Str "op"); ("phase", Json.Str phase);
              ("kind", Json.Str kind); ("due_us", us s.Loop.due); ("start_us", us s.Loop.sent);
              ("end_us", us s.Loop.finished);
              ("error", match s.Loop.error with Some e -> Json.Str e | None -> Json.Null) ];
          line
            [ ("id", id); ("name", Json.Str "build"); ("parent", Json.Str "op");
              ("dur_us", Json.Float s.Loop.item.Inputs.build_us) ];
          if Float.is_finite verify_us.(!base + i) then
            line
              [ ("id", id); ("name", Json.Str "verify"); ("parent", Json.Str "op");
                ("dur_us", Json.Float verify_us.(!base + i)) ])
        r.Loop.slots;
      List.iter
        (fun (f : Loop.frame) ->
          line
            [ ("id", Json.Int (!base + f.Loop.f_slot)); ("name", Json.Str "rtt");
              ("parent", Json.Str "op"); ("kind", Json.Str (Spec.kind_of_tag f.Loop.f_tag));
              ("start_us", us f.Loop.f_sent); ("end_us", us f.Loop.f_recv);
              ("bytes", Json.Int f.Loop.f_bytes) ])
        r.Loop.frames;
      base := !base + Array.length r.Loop.slots)
    runs;
  close_out oc

(* --- the run ------------------------------------------------------------------ *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

let ms x = 1000. *. x

(* wall time of each stage of the run, on stderr *)
let stage =
  let t = ref (now ()) in
  fun name ->
    let n = now () in
    Printf.eprintf "  %-10s %7.2f s\n%!" name (n -. !t);
    t := n

let verify_answer env model (s : Loop.slot) =
  match (s.Loop.item.Inputs.op, s.Loop.resps) with
  | Inputs.Write { batch; digests }, [ b ] ->
      ignore (Check.write ~lsp_pub:env.Inputs.lsp_pub ~batch ~digests b)
  | Inputs.Proof jsn, [ b ] -> Check.proof model ~jsn b
  | Inputs.Clue clue, [ b ] -> Check.lineage model ~clue b
  | Inputs.Scan prefix, pages -> Check.scan model ~prefix (List.rev pages)
  | _ -> raise (Check.Failed "answer count mismatch")

let run ~kind ~seed ~seconds ~trace ~quick =
  Domain_pool.set_default Domain_pool.sequential;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let spec = Spec.make kind ~seconds ~quick in
  let out_dir = Printf.sprintf "_build/bench_out/%s-s%d" spec.Spec.name seed in
  mkdir_p out_dir;
  let trace_dir = if trace then Some out_dir else None in
  let env = Inputs.env spec ~seed in
  let pre = Inputs.preload env in
  stage "presign";
  (* set-up, repeated; the last server stays up for the workload *)
  let setups = ref [] and first = ref [||] in
  let rec go k =
    let last = k = Spec.setups in
    let s, resps, dt =
      setup env pre ~trace_dir:(if last then trace_dir else None) ~trace:(trace && last)
    in
    setups := dt :: !setups;
    if !first = [||] then first := resps
    else if not (Array.for_all2 Bytes.equal !first resps) then
      raise (Check.Failed "two set-ups of the same preload answered differently");
    if last then (s, resps) else (ignore (stop_server s); go (k + 1))
  in
  let server, resps = go 1 in
  stage "setups";
  let model = Check.preload ~lsp_pub:env.Inputs.lsp_pub pre resps in
  let catchups =
    if not trace then []
    else
      List.init Spec.catchups (fun _ ->
          catchup env model ~port:server.port ~dir:(Filename.concat out_dir "catchup"))
  in
  if trace then stage "catchup";
  (* The warm-up, then the measured rounds: each builds and signs its
     requests, runs an open-loop window and a closed-loop window, and
     verifies their answers off the clock, so that every metric, the
     client's own time included, samples the whole run. *)
  let hot = Inputs.hot env pre in
  let jsns = Array.init (Array.length model.Check.tx) Fun.id in
  let failed = ref 0 and wrong = ref None in
  let run_phase p =
    let items = Inputs.phase env ~pre ~jsns ~hot p in
    let window = match p with Inputs.Capacity _ -> Some spec.Spec.window | _ -> None in
    let r = Loop.run server.loop ~window items in
    let verify_us =
      Array.map
        (fun (s : Loop.slot) ->
          match s.Loop.error with
          | Some _ ->
              incr failed;
              Float.nan
          | None ->
              let t0 = now () in
              (try verify_answer env model s with
              | Check.Refused _ -> incr failed
              | Check.Failed e -> if !wrong = None then wrong := Some e);
              (now () -. t0) *. 1e6)
        r.Loop.slots
    in
    (r, verify_us)
  in
  let warm_r = run_phase Inputs.Warm in
  let rounds =
    List.init spec.Spec.rounds (fun r ->
        let o = run_phase (Inputs.Open r) in
        (o, run_phase (Inputs.Capacity r)))
  in
  let rss_mb = Proc.vm_hwm_mb server.child.Proc.pid in
  let sstats = stop_server server in
  stage "rounds";
  let opens = List.map (fun (o, _) -> fst o) rounds in
  let caps = List.map (fun (_, c) -> fst c) rounds in
  let results = warm_r :: List.concat_map (fun (o, c) -> [ o; c ]) rounds in
  let slots = Array.concat (List.map (fun (r, _) -> r.Loop.slots) results) in
  let verify_us = Array.concat (List.map snd results) in
  let n = Array.length slots in
  match !wrong with
  | Some e ->
      prerr_endline ("verification failed: " ^ e);
      { correct = false; attempted = n; failed = !failed; metrics = [] }
  | None ->
  let primary (i : Inputs.item) = i.Inputs.primary in
  (* open-loop latencies of one round, ms from due time to answer *)
  let latencies pred (r : Loop.result) =
    let s = Stats.series () in
    Array.iter
      (fun (sl : Loop.slot) ->
        if pred sl.Loop.item && not (Float.is_nan sl.Loop.finished) then
          Stats.add s (ms (sl.Loop.finished -. sl.Loop.due)))
      r.Loop.slots;
    s
  in
  let rate (r : Loop.result) =
    let k =
      Array.fold_left
        (fun acc (sl : Loop.slot) ->
          if primary sl.Loop.item && not (Float.is_nan sl.Loop.finished) then acc + 1 else acc)
        0 r.Loop.slots
    in
    float_of_int k /. (r.Loop.stop -. r.Loop.start)
  in
  let prim = List.map (latencies primary) opens in
  let wr = List.map (latencies Inputs.is_write) opens in
  (* A percentile reported: the median over the rounds of each round's.
     A stall of the shared host then moves one round, not the run. *)
  let per_round l q = Stats.median_of (List.map (fun s -> Stats.quantile s q) l) in
  let rates = List.map rate caps in
  (* client time per op class: the median build time plus the median
     verify time, weighed by the class's share of the workload *)
  let client_us =
    List.fold_left
      (fun acc (cls, w) ->
        let b = Stats.series () and v = Stats.series () in
        Array.iteri
          (fun i (sl : Loop.slot) ->
            if Inputs.class_of sl.Loop.item = cls && Float.is_finite verify_us.(i) then begin
              Stats.add b sl.Loop.item.Inputs.build_us;
              Stats.add v verify_us.(i)
            end)
          slots;
        acc +. (w *. (Stats.quantile b 0.5 +. Stats.quantile v 0.5)))
      0. (Spec.mix kind)
  in
  let late = Stats.series () in
  List.iter (fun r -> Array.iter (Stats.add late) (Stats.sorted r.Loop.late)) opens;
  let late_p99_ms = ms (Stats.quantile late 0.99) in
  let busy = List.fold_left (fun acc r -> Float.max acc r.Loop.busy_share) 0. caps in
  let setups = List.rev !setups in
  let floats l = String.concat " " (List.map (Printf.sprintf "%.6g") l) in
  Printf.eprintf "%s seed %d: %d ops (%d failed)\n  setups %s s\n" spec.Spec.name seed n
    !failed (floats setups);
  if trace then Printf.eprintf "  catch-ups %s s\n" (floats (List.map fst catchups));
  List.iteri
    (fun i ((p, w), c) ->
      Printf.eprintf "  round %2d: p50 %.4g ms, tail %.4g ms, write tail %.4g ms, %.6g ops/s\n" i
        (Stats.quantile p 0.5) (Stats.quantile p spec.Spec.tail_q)
        (Stats.quantile w spec.Spec.write_tail_q) c)
    (List.combine (List.combine prim wr) rates);
  (* The times users see.  The host's speed drifts by more than 10 %
     from one run to the next, so they are per-layer metrics, without a
     bound; an untraced run prints them here, which gives the tracing
     overhead. *)
  let times =
    [ ("e2e.p50_ms", per_round prim 0.5, "ms");
      ("e2e.tail_ms", per_round prim spec.Spec.tail_q, "ms");
      ("e2e.write_tail_ms", per_round wr spec.Spec.write_tail_q, "ms");
      ("e2e.capacity_ops_s", Stats.median_of rates, "ops/s");
      ("e2e.client_us_per_op", client_us, "us") ]
  in
  List.iter (fun (k, v, u) -> Printf.eprintf "  %s %.6g %s\n" k v u) times;
  Printf.eprintf "  generator late p99 %.3f ms, closed-loop busy share %.2f\n%!" late_p99_ms busy;
  if late_p99_ms > 1. || busy > 0.8 then
    prerr_endline "warning: the load generator fell behind; treat this run as invalid";
  let metrics =
    if not trace then
      [ ("setup_s", Stats.median_of setups, "s"); ("server_rss_mb", rss_mb, "MiB") ]
    else begin
      (* a pull is a thousand sequential round trips, and a stall anywhere
         in it adds to it whole: the fastest of the pulls is the steadiest *)
      let catchup_s = List.fold_left (fun acc (dt, _) -> Float.min acc dt) infinity catchups in
      let requests_per_journal = snd (List.hd catchups) in
      let ptag = Spec.primary_tag kind in
      let replay =
        let c =
          Proc.spawn
            [ "replay"; "--name"; env.Inputs.lname;
              "--frames"; Filename.concat out_dir "frames.bin";
              "--preload-frames"; string_of_int (Array.length pre.Inputs.frames);
              "--primary-tag"; string_of_int ptag ]
        in
        let st = Proc.read_stats ~timeout:150. c in
        Proc.reap c;
        st
      in
      let get l k =
        match List.assoc_opt k l with
        | Some v -> v
        | None -> failwith ("missing layer measurement " ^ k)
      in
      let r = get replay and sv = get sstats in
      let frames =
        List.concat_map (fun r -> List.filter (fun f -> f.Loop.f_tag = ptag) r.Loop.frames) opens
      in
      let mean f =
        let s = Stats.series () in
        List.iter (fun x -> Stats.add s (f x)) frames;
        Stats.mean s
      in
      let rtt = mean (fun f -> 1e6 *. (f.Loop.f_recv -. f.Loop.f_sent)) in
      let handle =
        Server.handler_mean_us (Filename.concat out_dir "spans-server.jsonl") ~tag:ptag
          ~windows:(List.map (fun (o : Loop.result) -> (o.Loop.start, o.Loop.stop)) opens)
      in
      write_client_spans (Filename.concat out_dir "spans-client.jsonl")
        (("warm", fst warm_r)
        :: List.concat
             (List.mapi
                (fun i (o, c) ->
                  [ (Printf.sprintf "open-%d" i, fst o); (Printf.sprintf "capacity-%d" i, fst c) ])
                rounds))
        verify_us;
      List.map
        (fun (k, unit) -> (k, r k, unit))
        [ ("crypto.verify_us", "us"); ("crypto.sign_us", "us");
          ("ledger.append_us_per_entry", "us"); ("ledger.member_wire_us", "us");
          ("read_view.get_proof_us", "us"); ("read_view.prove_clue_us", "us");
          ("read_view.receipt_us", "us"); ("read_view.block_first_us", "us");
          ("read_view.block_top_us", "us"); ("service.replay_us", "us");
          ("service.decode_us", "us"); ("service.encode_us", "us");
          ("net.read_obs_us", "us"); ("net.read_obs_sprintf_us", "us");
          ("net.write_1k_us", "us"); ("query.page_us", "us"); ("query.page_bytes", "bytes");
          ("range_query.verify_page_us", "us"); ("fam.verify_us", "us");
          ("fam.proof_bytes", "bytes"); ("cm_tree.verify_clue_us", "us");
          ("cm_tree.proof_bytes", "bytes"); ("storage.digests_per_journal", "ratio");
          ("obs.publishes_per_journal", "ratio") ]
      @ times
      @ [ ("e2e.catchup_s", catchup_s, "s");
          ("service.handle_us", handle, "us");
          ("service.in_server_ratio", handle /. r "service.replay_us", "ratio");
          ("net.rtt_us", rtt, "us");
          ("net.gap_us", rtt -. handle, "us");
          ("net.resp_bytes", mean (fun f -> float_of_int f.Loop.f_bytes), "bytes");
          ("net.locked_share", 1. -. (sv "read_served" /. sv "served"), "ratio");
          ("replica.requests_per_journal", requests_per_journal, "count");
          ("client.late_p99_ms", late_p99_ms, "ms");
          ("client.busy_share", busy, "ratio") ]
    end
  in
  { correct = true; attempted = n; failed = !failed; metrics }
