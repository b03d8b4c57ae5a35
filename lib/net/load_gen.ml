(* Load harness over real sockets.

   [connections] driver threads each own one Net_transport endpoint and
   the logical clients [j] with [j mod connections = i].  Logical
   clients materialise lazily in a per-driver table, so the population
   can be orders of magnitude larger than the connection pool.  All
   derived state (member keys, LSP key, clue names, payloads) comes
   from the served ledger's announced name plus the run seed — nothing
   is shared with the server process out of band. *)

open Ledger_crypto
open Ledger_storage
open Ledger_core
open Ledger_merkle
open Ledger_cmtree
open Ledger_bench_util

type mix = { append_w : int; verify_w : int; lineage_w : int }

type config = {
  host : string;
  port : int;
  logical_clients : int;
  connections : int;
  total_ops : int;
  rate_per_s : float option;
  payload_size : int;
  clue_count : int;
  zipf_s : float;
  mix : mix;
  read_ratio : float option;
      (* [Some r]: draw a read op (verify/lineage, split by their mix
         weights) with probability r, an append otherwise — overrides
         the mix proportions; [None]: use the mix as-is *)
  pulls : int;
  seed : int;
  crypto : Crypto_profile.t;
  ledger_config : Ledger.config option;
  scratch_dir : string option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    logical_clients = 10_000;
    connections = 8;
    total_ops = 4_000;
    rate_per_s = None;
    payload_size = 64;
    clue_count = 128;
    zipf_s = 1.1;
    mix = { append_w = 3; verify_w = 2; lineage_w = 1 };
    read_ratio = None;
    pulls = 1;
    seed = 42;
    crypto = Crypto_profile.Real;
    ledger_config = None;
    scratch_dir = None;
  }

type result = {
  logical_clients : int;
  connections : int;
  ops : int;
  appends : int;
  verifies : int;
  lineages : int;
  read_ops : int;
  write_ops : int;
  pulls_ok : int;
  pulls_failed : int;
  transport_failures : int;
  verify_failures : int;
  duration_s : float;
  tps : float;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  p999_us : float;
  max_us : float;
  read_mean_us : float;
  read_p50_us : float;
  read_p95_us : float;
  read_p99_us : float;
  read_max_us : float;
  write_mean_us : float;
  write_p50_us : float;
  write_p95_us : float;
  write_p99_us : float;
  write_max_us : float;
}

(* growable (jsn, tx_hash) history for uniform verify-op picks *)
type hist = { mutable a : (int * Hash.t) array; mutable n : int }

let hist_create () = { a = Array.make 64 (0, Hash.zero); n = 0 }

let hist_add h v =
  if h.n = Array.length h.a then begin
    let bigger = Array.make (2 * h.n) (0, Hash.zero) in
    Array.blit h.a 0 bigger 0 h.n;
    h.a <- bigger
  end;
  h.a.(h.n) <- v;
  h.n <- h.n + 1

(* one logical client: signing state + its private clue's history *)
type cstate = {
  svc : Service.Client.t;
  own_clue : string;
  mutable own_rev : Hash.t list; (* newest first *)
  mutable own_n : int;
}

(* one growable latency sample series; reads and writes are kept apart
   so the split percentiles are exact, not reconstructed *)
type series = { mutable sa : float array; mutable sn : int }

let series_create () = { sa = Array.make 1024 0.; sn = 0 }

let series_add s v =
  if s.sn = Array.length s.sa then begin
    let bigger = Array.make (2 * s.sn) 0. in
    Array.blit s.sa 0 bigger 0 s.sn;
    s.sa <- bigger
  end;
  s.sa.(s.sn) <- v;
  s.sn <- s.sn + 1

type driver = {
  idx : int;
  ops : int ref;
  appends : int ref;
  verifies : int ref;
  lineages : int ref;
  transport_failures : int ref;
  verify_failures : int ref;
  rlat : series; (* verify + lineage ops *)
  wlat : series; (* append ops *)
}

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

(* wall-clock backoff between retries: the drivers' simulated clocks
   advance instantly, so without this a dead server is hammered *)
let retry_sleep ~attempt ~reason:_ = Thread.delay (0.02 *. float_of_int attempt)

let rpc ~clock ~transport ~decode req =
  Transport.request_expect ~policy:Transport.default_policy
    ~on_retry:retry_sleep ~clock ~decode transport req

let must ~what = function
  | Ok v -> v
  | Error f ->
      failwith
        (Printf.sprintf "load_gen: %s: %s" what (Transport.failure_to_string f))

let d_checkpoint = function
  | Service.Checkpoint_r { name; size; _ } -> Some (name, size)
  | _ -> None

let d_members = function Service.Members_r ms -> Some ms | _ -> None
let d_receipt = function Service.Receipt_r r -> Some r | _ -> None

let d_proof_bundle = function
  | Service.Proof_bundle_r { proof; commitment; size = _ } ->
      Some (proof, commitment)
  | _ -> None

let d_clue_bundle = function
  | Service.Clue_bundle_r { proof; clue_root } -> Some (proof, clue_root)
  | _ -> None

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    sorted.(min (n - 1)
              (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let run (cfg : config) : result =
  if cfg.connections < 1 then invalid_arg "Load_gen.run: connections < 1";
  if cfg.logical_clients < 1 then invalid_arg "Load_gen.run: no clients";
  (match cfg.read_ratio with
  | Some r when r < 0. || r > 1. ->
      invalid_arg "Load_gen.run: read_ratio must be in [0,1]"
  | Some _ | None -> ());
  (* -- discover the served ledger: name, members, LSP key ------------- *)
  let ctl = Net_transport.connect ~host:cfg.host ~port:cfg.port () in
  let ctl_tr = Net_transport.transport ctl in
  let ctl_clock = Clock.create () in
  let lname, start_size =
    must ~what:"checkpoint"
      (rpc ~clock:ctl_clock ~transport:ctl_tr ~decode:d_checkpoint
         (Service.Client.make_get_checkpoint ()))
  in
  let members_wire =
    must ~what:"members"
      (rpc ~clock:ctl_clock ~transport:ctl_tr ~decode:d_members
         (Service.Client.make_get_members ()))
  in
  Net_transport.close ctl;
  let lsp_pub = snd (Ecdsa.generate ~seed:("lsp:" ^ lname)) in
  let ledger_uri = "ledger://" ^ lname in
  (* usable credentials: members whose key is derivable from the ledger
     name — i.e. the population the server pre-registered for serving *)
  let creds =
    List.filter_map
      (fun (mname, _role, pub_bytes) ->
        let priv, pub = Ecdsa.generate ~seed:(lname ^ ":" ^ mname) in
        if Bytes.equal (Ecdsa.public_key_to_bytes pub) pub_bytes then
          Some
            ( { Roles.name = mname; role = Roles.Regular_user; pub;
                id = Ecdsa.public_key_id pub },
              priv )
        else None)
      members_wire
    |> Array.of_list
  in
  if Array.length creds = 0 then
    failwith "load_gen: server announced no derivable-key members";
  let zipf = Workload.zipf ~n:(max 1 cfg.clue_count) ~s:cfg.zipf_s in
  let budget = Atomic.make cfg.total_ops in
  let claim () = Atomic.fetch_and_add budget (-1) > 0 in
  let started = Unix.gettimeofday () in

  (* -- replica pulls, concurrent with the op traffic ------------------ *)
  let pulls_ok = ref 0 and pulls_failed = ref 0 in
  let pull_thread =
    if cfg.pulls <= 0 then None
    else
      Some
        (Thread.create
           (fun () ->
             let base =
               Option.value cfg.scratch_dir
                 ~default:(Filename.get_temp_dir_name ())
             in
             let lcfg =
               match cfg.ledger_config with
               | Some c -> c
               | None ->
                   { Ledger.default_config with name = lname;
                     crypto = cfg.crypto }
             in
             for k = 1 to cfg.pulls do
               let dir =
                 Filename.concat base
                   (Printf.sprintf "loadgen-pull-%d-%d" (Unix.getpid ()) k)
               in
               mkdir_p dir;
               (* a pull is thousands of serialized requests competing
                  with the op traffic for the dispatch lock, so give it
                  a patient per-response deadline *)
               let ep =
                 Net_transport.connect ~response_timeout_s:30. ~host:cfg.host
                   ~port:cfg.port ()
               in
               let clock = Clock.create () in
               (match
                  Replica.pull_verbose ~transport:(Net_transport.transport ep)
                    ~policy:Transport.default_policy ~config:lcfg ~clock
                    ~scratch_dir:dir ()
                with
               | Ok (_replica, _stats) -> incr pulls_ok
               | Error e ->
                   incr pulls_failed;
                   Printf.eprintf "load_gen: pull %d failed: %s\n%!" k
                     (Replica.error_to_string e)
               | exception exn ->
                   incr pulls_failed;
                   Printf.eprintf "load_gen: pull %d raised: %s\n%!" k
                     (Printexc.to_string exn));
               Net_transport.close ep
             done)
           ())
  in

  (* -- driver threads ------------------------------------------------- *)
  let w_total = cfg.mix.append_w + cfg.mix.verify_w + cfg.mix.lineage_w in
  if w_total <= 0 then invalid_arg "Load_gen.run: empty mix";
  let drivers =
    Array.init cfg.connections (fun idx ->
        {
          idx;
          ops = ref 0;
          appends = ref 0;
          verifies = ref 0;
          lineages = ref 0;
          transport_failures = ref 0;
          verify_failures = ref 0;
          rlat = series_create ();
          wlat = series_create ();
        })
  in
  let drive d () =
    let ep = Net_transport.connect ~host:cfg.host ~port:cfg.port () in
    let transport = Net_transport.transport ep in
    let clock = Clock.create () in
    let rng = Det_rng.create ~seed:((cfg.seed * 1_000_003) + d.idx) in
    let clients : (int, cstate) Hashtbl.t = Hashtbl.create 256 in
    let hist = hist_create () in
    (* logical clients of this driver: idx, idx + C, idx + 2C, ... *)
    let slice =
      let base = cfg.logical_clients / cfg.connections in
      base + (if d.idx < cfg.logical_clients mod cfg.connections then 1 else 0)
    in
    let pick_client () =
      let j = d.idx + (cfg.connections * Det_rng.int rng (max 1 slice)) in
      match Hashtbl.find_opt clients j with
      | Some c -> c
      | None ->
          let member, priv = creds.(j mod Array.length creds) in
          let c =
            {
              svc =
                Service.Client.create ~crypto:cfg.crypto ~ledger_uri ~member
                  ~priv ();
              (* the server's size at run start tells this run's clues
                 apart from every earlier run's against the same server *)
              own_clue = Printf.sprintf "own-%d-%d" start_size j;
              own_rev = [];
              own_n = 0;
            }
          in
          Hashtbl.replace clients j c;
          c
    in
    let fail_transport () = incr d.transport_failures in
    let fail_verify () = incr d.verify_failures in
    let do_append ?clue c =
      let clue =
        match clue with
        | Some cl -> cl
        | None -> Printf.sprintf "clue-%d" (Workload.zipf_draw zipf rng)
      in
      let payload = Det_rng.bytes rng cfg.payload_size in
      let req =
        Service.Client.make_append c.svc ~clues:[ clue ]
          ~client_ts:(Clock.now clock) payload
      in
      match rpc ~clock ~transport ~decode:d_receipt req with
      | Error _ -> fail_transport ()
      | Ok r ->
          incr d.appends;
          let digest =
            Receipt.signing_digest ~jsn:r.Receipt.jsn
              ~request_hash:r.Receipt.request_hash ~tx_hash:r.Receipt.tx_hash
              ~block_hash:r.Receipt.block_hash ~timestamp:r.Receipt.timestamp
          in
          if not (Crypto_profile.check cfg.crypto ~pub:lsp_pub digest
                    r.Receipt.lsp_sig)
          then fail_verify ()
          else begin
            hist_add hist (r.Receipt.jsn, r.Receipt.tx_hash);
            if clue = c.own_clue then begin
              c.own_rev <- r.Receipt.tx_hash :: c.own_rev;
              c.own_n <- c.own_n + 1
            end
          end
    in
    let do_verify c =
      if hist.n = 0 then do_append c
      else begin
        let jsn, leaf = hist.a.(Det_rng.int rng hist.n) in
        match
          rpc ~clock ~transport ~decode:d_proof_bundle
            (Service.Client.make_get_proof_bundle ~jsn)
        with
        | Error _ -> fail_transport ()
        | Ok (proof, commitment) ->
            incr d.verifies;
            if not (Fam.verify ~commitment ~leaf proof) then fail_verify ()
      end
    in
    let do_lineage c =
      if c.own_n = 0 then do_append ~clue:c.own_clue c;
      if c.own_n > 0 then begin
        match
          rpc ~clock ~transport ~decode:d_clue_bundle
            (Service.Client.make_get_clue_bundle ~clue:c.own_clue ())
        with
        | Error _ -> fail_transport ()
        | Ok (Some proof, clue_root) ->
            incr d.lineages;
            let known =
              List.rev c.own_rev |> List.mapi (fun v h -> (v, h))
            in
            if not (Cm_tree.verify_clue ~root:clue_root ~known proof) then
              fail_verify ()
        | Ok (None, _) ->
            (* we hold receipts for entries of this clue; a service that
               cannot produce the lineage is lying *)
            incr d.lineages;
            fail_verify ()
      end
    in
    (* open loop: this driver's k-th op is released at start + k·gap *)
    let gap =
      match cfg.rate_per_s with
      | None -> 0.
      | Some r when r <= 0. -> 0.
      | Some r -> float_of_int cfg.connections /. r
    in
    let k = ref 0 in
    while claim () do
      (match cfg.rate_per_s with
      | None -> ()
      | Some _ ->
          let due = started +. (float_of_int !k *. gap) in
          let now = Unix.gettimeofday () in
          if due > now then Thread.delay (due -. now));
      incr k;
      let c = pick_client () in
      (* pick the intended op class up front: its latency sample goes to
         the read or write series even when the op internally falls back
         to an append (empty history) *)
      let op =
        match cfg.read_ratio with
        | None ->
            let w = Det_rng.int rng w_total in
            if w < cfg.mix.append_w then `Append
            else if w < cfg.mix.append_w + cfg.mix.verify_w then `Verify
            else `Lineage
        | Some r ->
            if Det_rng.int rng 1_000_000 < int_of_float (r *. 1e6) then begin
              let rw = cfg.mix.verify_w + cfg.mix.lineage_w in
              if rw <= 0 || Det_rng.int rng rw < cfg.mix.verify_w then `Verify
              else `Lineage
            end
            else `Append
      in
      let t0 = Unix.gettimeofday () in
      (try
         match op with
         | `Append -> do_append c
         | `Verify -> do_verify c
         | `Lineage -> do_lineage c
       with Transport.Timeout _ | Failure _ -> fail_transport ());
      let dt_us = (Unix.gettimeofday () -. t0) *. 1e6 in
      (match op with
      | `Append -> series_add d.wlat dt_us
      | `Verify | `Lineage -> series_add d.rlat dt_us);
      incr d.ops
    done;
    Net_transport.close ep
  in
  let threads =
    Array.map (fun d -> Thread.create (drive d) ()) drivers
  in
  Array.iter Thread.join threads;
  Option.iter Thread.join pull_thread;
  let duration_s = Unix.gettimeofday () -. started in

  (* -- aggregate ------------------------------------------------------ *)
  let sum f = Array.fold_left (fun acc d -> acc + !(f d)) 0 drivers in
  let ops = sum (fun d -> d.ops) in
  let collect f =
    let total = Array.fold_left (fun acc d -> acc + (f d).sn) 0 drivers in
    let a = Array.make (max 1 total) 0. in
    let off = ref 0 in
    Array.iter
      (fun d ->
        let s = f d in
        Array.blit s.sa 0 a !off s.sn;
        off := !off + s.sn)
      drivers;
    let a = if total = 0 then [||] else Array.sub a 0 total in
    Array.sort compare a;
    a
  in
  let rlat = collect (fun d -> d.rlat) in
  let wlat = collect (fun d -> d.wlat) in
  let lat = Array.append rlat wlat in
  Array.sort compare lat;
  let mean_of a =
    if Array.length a = 0 then 0.
    else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)
  in
  let max_of a = if Array.length a = 0 then 0. else a.(Array.length a - 1) in
  {
    logical_clients = cfg.logical_clients;
    connections = cfg.connections;
    ops;
    appends = sum (fun d -> d.appends);
    verifies = sum (fun d -> d.verifies);
    lineages = sum (fun d -> d.lineages);
    read_ops = Array.length rlat;
    write_ops = Array.length wlat;
    pulls_ok = !pulls_ok;
    pulls_failed = !pulls_failed;
    transport_failures = sum (fun d -> d.transport_failures);
    verify_failures = sum (fun d -> d.verify_failures);
    duration_s;
    tps = (if duration_s > 0. then float_of_int ops /. duration_s else 0.);
    mean_us = mean_of lat;
    p50_us = percentile lat 0.50;
    p95_us = percentile lat 0.95;
    p99_us = percentile lat 0.99;
    p999_us = percentile lat 0.999;
    max_us = max_of lat;
    read_mean_us = mean_of rlat;
    read_p50_us = percentile rlat 0.50;
    read_p95_us = percentile rlat 0.95;
    read_p99_us = percentile rlat 0.99;
    read_max_us = max_of rlat;
    write_mean_us = mean_of wlat;
    write_p50_us = percentile wlat 0.50;
    write_p95_us = percentile wlat 0.95;
    write_p99_us = percentile wlat 0.99;
    write_max_us = max_of wlat;
  }

let pp_result ppf (r : result) =
  Format.fprintf ppf
    "@[<v>logical clients  %d over %d connections@,\
     ops              %d (%d append / %d verify / %d lineage)@,\
     read/write       %d read ops, %d write ops@,\
     replica pulls    %d ok, %d failed@,\
     failures         %d transport, %d verification@,\
     duration         %.2f s  (%.0f ops/s sustained)@,\
     latency µs       p50 %.0f  p95 %.0f  p99 %.0f  p99.9 %.0f  max %.0f@,\
     read µs          p50 %.0f  p95 %.0f  p99 %.0f  max %.0f@,\
     write µs         p50 %.0f  p95 %.0f  p99 %.0f  max %.0f@]"
    r.logical_clients r.connections r.ops r.appends r.verifies r.lineages
    r.read_ops r.write_ops r.pulls_ok r.pulls_failed r.transport_failures
    r.verify_failures r.duration_s r.tps r.p50_us r.p95_us r.p99_us
    r.p999_us r.max_us r.read_p50_us r.read_p95_us r.read_p99_us
    r.read_max_us r.write_p50_us r.write_p95_us r.write_p99_us
    r.write_max_us
