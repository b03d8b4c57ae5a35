(* The four workloads and every fixed parameter of a run.  Why each
   workload exists is recorded once, in BENCHMARK.json. *)

module Json = Ledger_bench_util.Json_out

type kind = Notarize | Verify | Audit | Ingest

type preload =
  | Unique of int  (** entries, each under its own fresh clue *)
  | Accounts of { clues : int; spread : int }
      (** [clues] account clues; clue [k] holds [1 + k mod spread]
          entries, shuffled over the jsn range by the seed *)

type t = {
  kind : kind;
  name : string;
  preload : preload;
  rate : float;  (** open-loop primary ops per second *)
  bg_rate : float;  (** open-loop background appends per second (audit) *)
  warm_s : float;
  open_s : float;
  rounds : int;
      (** open-loop + closed-loop rounds.  Every time reported is a median
          over the rounds, so a stall of the shared host moves a round,
          not the run. *)
  capacity_ops : int;  (** closed-loop primary ops *)
  window : int;  (** closed loop: requests outstanding per connection *)
  tail_q : float;  (** percentile reported as [e2e.tail_ms] *)
  write_tail_q : float;  (** percentile reported as [e2e.write_tail_ms] *)
}

(* Fixed across workloads: the host record. *)
let connections = 2
let server_workers = 2
let members = 64
let setups = 3
let catchups = 3 (* traced runs; [e2e.catchup_s] is the fastest pull *)
let page_size = 32
let max_restarts = 5
let preload_batch = 256
let ingest_entries = 32
let drain_timeout_s = 20.

let all = [ Notarize; Verify; Audit; Ingest ]

let name_of = function
  | Notarize -> "notarize"
  | Verify -> "verify"
  | Audit -> "audit"
  | Ingest -> "ingest"

let of_name s = List.find_opt (fun k -> name_of k = s) all

(* The primary ops by [Inputs.class_of], with their share of the
   workload: [e2e.client_us_per_op] weighs each class's cost by it. *)
let mix = function
  | Notarize -> [ ("append", 1.) ]
  | Verify -> [ ("proof", 14. /. 19.); ("lineage", 5. /. 19.) ]
  | Audit -> [ ("scan1", 0.25); ("scan2", 0.75) ]
  | Ingest -> [ ("append_batch", 1.) ]

(* Ops in one block of the workload's fixed mix ([Inputs.phase]); each
   closed-loop round runs whole blocks. *)
let block = function Verify | Audit -> 20 | Notarize | Ingest -> 1

(* Closed-loop throughput measured at the seed commit on a 2-core host
   while other tenants slowed it; it sizes the capacity phase so that it
   lasts about [0.4 * seconds] (less when the host is calm). *)
let est_capacity = function
  | Notarize -> 200.
  | Verify -> 3000.
  | Audit -> 250.
  | Ingest -> 20.

let make kind ~seconds ~quick =
  let s = float_of_int seconds in
  let warm_s, open_s, cap_s, rounds =
    if quick then (0.5, 2.0, 1.0, 2) else (1.0, 0.6 *. s, 0.4 *. s, 20)
  in
  let capacity_ops =
    let n = est_capacity kind *. cap_s in
    if quick then max 8 (int_of_float n)
    else
      let unit = float_of_int (block kind * rounds) in
      int_of_float (unit *. Float.max 1. (Float.round (n /. unit)))
  in
  let unique = Unique (if quick then 256 else 1024) in
  let accounts =
    if quick then Accounts { clues = 128; spread = 3 }
    else Accounts { clues = 256; spread = 7 }
  in
  let base =
    { kind; name = name_of kind; preload = unique; rate = 0.; bg_rate = 0.; warm_s; open_s;
      rounds; capacity_ops; window = 1; tail_q = 0.99; write_tail_q = 0.99 }
  in
  match kind with
  | Notarize -> { base with rate = 60.; window = 4 }
  | Verify -> { base with preload = accounts; rate = 1000.; window = 16 }
  | Audit -> { base with preload = accounts; rate = 50.; bg_rate = 20. }
  | Ingest -> { base with rate = 10.; window = 2; tail_q = 0.95; write_tail_q = 0.95 }

(* Open-loop arrivals at [rate] over [duration], in whole blocks of
   [block] ops of the workload's mix. *)
let arrivals ?(block = 1) ~rate duration =
  (* the epsilon keeps 1000 x 0.54 / 20 from flooring to 26 *)
  block * int_of_float ((rate *. duration /. float_of_int block) +. 1e-9)

let preload_entries = function
  | Unique n -> n
  | Accounts { clues; spread } ->
      let total = ref 0 in
      for k = 0 to clues - 1 do
        total := !total + 1 + (k mod spread)
      done;
      !total

(* Request kinds by the leading tag byte of a [Service] request. *)
let kinds =
  [ (0, "append"); (1, "get_payload"); (2, "get_proof"); (3, "get_receipt");
    (4, "get_clue_proof"); (5, "get_commitment"); (6, "get_extension");
    (7, "get_journal"); (8, "get_block"); (9, "get_members");
    (10, "get_checkpoint"); (11, "append_batch"); (12, "get_proof_bundle");
    (13, "get_clue_bundle"); (14, "query_page") ]

let kind_of_tag tag =
  match List.assoc_opt tag kinds with Some k -> k | None -> "malformed"

(* The workload's primary request kind, by wire tag. *)
let primary_tag = function Notarize -> 0 | Verify -> 12 | Audit -> 14 | Ingest -> 11
let primary_kind k = kind_of_tag (primary_tag k)

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> "unknown"
        | line -> (
            match String.index_opt line ':' with
            | Some i when String.length line > 10 && String.sub line 0 10 = "model name"
              ->
                String.trim (String.sub line (i + 1) (String.length line - i - 1))
            | _ -> go ())
      in
      let m = go () in
      close_in ic;
      m

(* Machine-readable record of the parameters, for [--describe]. *)
let describe ~seconds ~quick =
  let open Json in
  let wl k =
    let t = make k ~seconds ~quick in
    let preload =
      match t.preload with
      | Unique e -> Obj [ ("entries", Int e); ("clues", Str "one fresh clue per entry") ]
      | Accounts { clues; spread } ->
          Obj
            [ ("entries", Int (preload_entries t.preload)); ("clues", Int clues);
              ("entries_per_clue", Str (Printf.sprintf "1..%d" spread)) ]
    in
    Obj
      [ ("name", Str t.name); ("primary_kind", Str (primary_kind k)); ("preload", preload);
        ("open_loop_rate_per_s", Float t.rate); ("background_appends_per_s", Float t.bg_rate);
        ("warmup_s", Float t.warm_s); ("open_loop_s", Float t.open_s); ("rounds", Int t.rounds);
        ( "open_loop_primary_samples",
          let round_s = t.open_s /. float_of_int t.rounds in
          Int
            (t.rounds
            *
            match k with
            | Verify -> arrivals ~block:20 ~rate:t.rate round_s * 19 / 20
            | Audit -> arrivals ~block:4 ~rate:t.rate round_s
            | Notarize | Ingest -> arrivals ~rate:t.rate round_s) );
        ("capacity_ops", Int t.capacity_ops); ("capacity_window_per_conn", Int t.window);
        ("tail_percentile", Float (100. *. t.tail_q));
        ("write_tail_percentile", Float (100. *. t.write_tail_q)) ]
  in
  let cmd extra =
    Str (Printf.sprintf "sh benchmark/run.sh --workload W --seed N --seconds %d%s" seconds extra)
  in
  to_string
    (Obj
       [ ("seconds", Int seconds); ("quick", Bool quick); ("seed_argument", Str "--seed N");
         ( "commands",
           Obj
             [ ("full", cmd " --trace 0"); ("trace", cmd " --trace 1");
               ("quick", Str "sh benchmark/run.sh --workload W --seed N --quick") ] );
         ("percentiles", Str "median over the rounds of each round's");
         ( "host",
           Obj
             [ ("nproc", Int (Domain.recommended_domain_count ()));
               ("cpu_model", Str (cpu_model ())); ("server_workers", Int server_workers);
               ("client_threads", Int 1); ("client_connections", Int connections);
               ("members", Int members); ("crypto", Str "Real ECDSA");
               ("flush_policy", Str "in-memory Stream_store, no fsync");
               ("setups_per_run", Int setups) ] );
         ("workloads", List (List.map wl all)) ])
