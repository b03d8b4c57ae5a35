(* Serving-layer bench: a real multi-domain socket server driven by the
   verifying load harness over loopback.

   Unlike every other bench in this harness, nothing here runs on the
   simulated clock: frames cross real kernel sockets, latencies are
   wall-clock microseconds, and the percentiles are exact (sorted
   sample, not bucketed).  The run is still self-checking — every
   receipt signature, fam proof, whole-clue lineage proof and replica
   pull is verified by the clients, and the bench fails hard on any
   cryptographic mismatch, any abandoned op, or disordered
   percentiles — so the numbers it reports are for traffic that was
   actually proven correct.

   Smoke sizes (CI): 10⁴ logical clients over 8 connections, a few
   thousand mixed ops, one concurrent replica pull.  Full sizes push
   the logical-client population to 10⁵ and the op count to 2·10⁴. *)

open Ledger_storage
open Ledger_core
open Ledger_net
open Ledger_bench_util

let build_server ~members ~seed_entries ~workers =
  let clock = Clock.create () in
  let config =
    { Ledger.default_config with name = "bench-serve";
      crypto = Crypto_profile.default_simulated }
  in
  let ledger = Ledger.create ~config ~clock () in
  (* members c0..cN-1 have name-derived keys, so the load harness can
     reconstruct every credential from the membership list alone *)
  for i = 0 to members - 1 do
    ignore
      (Ledger.new_member ledger
         ~name:(Printf.sprintf "c%d" i)
         ~role:Roles.Regular_user)
  done;
  let m, k = Ledger.new_member ledger ~name:"seeder" ~role:Roles.Regular_user in
  for i = 0 to seed_entries - 1 do
    Clock.advance_ms clock 5.;
    ignore
      (Ledger.append ledger ~member:m ~priv:k
         ~clues:[ "seed-" ^ string_of_int (i mod 4) ]
         (Bytes.of_string (Printf.sprintf "seed %d" i)))
  done;
  ( Net_server.create
      ~config:{ Net_server.default_config with port = 0; workers }
      ~read:(Service.handle_read ledger)
      (Service.handle ledger),
    config )

let gate cond msg = if not cond then failwith ("bench_serve: " ^ msg)

let run_load ~server ~served_config ~clients ~connections ~ops ~pulls
    ?read_ratio () =
  Load_gen.run
    {
      Load_gen.default_config with
      port = Net_server.port server;
      logical_clients = clients;
      connections;
      total_ops = ops;
      pulls;
      read_ratio;
      crypto = served_config.Ledger.crypto;
      ledger_config = Some served_config;
    }

(* Read-heavy (95/5) column: the same verifying workload, read_ratio
   0.95, against a 1-worker and an n-worker server.  With lock-free
   read dispatch the n-worker server must not serve reads slower than
   the single worker (it used to: every read queued on the dispatch
   lock). *)
let run_read_heavy ~smoke ~clients ~connections ~workers =
  let ops = if smoke then 1_000 else 8_000 in
  let one (workers : int) =
    let server, served_config =
      build_server ~members:64 ~seed_entries:8 ~workers
    in
    let r =
      run_load ~server ~served_config ~clients ~connections ~ops ~pulls:0
        ~read_ratio:0.95 ()
    in
    Net_server.stop server;
    let s = Net_server.stats server in
    gate (r.Load_gen.verify_failures = 0)
      "read-heavy: cryptographic verification failed";
    gate (r.Load_gen.transport_failures = 0)
      "read-heavy: ops abandoned or refused";
    gate (r.Load_gen.ops = ops) "read-heavy: op budget not fully spent";
    (* every completed verify/lineage is exactly one read request; the
       server must have answered at least those without the lock
       (discovery and fallback appends make read_served a lower bound) *)
    gate
      (s.Net_server.read_served >= r.Load_gen.verifies + r.Load_gen.lineages)
      "read-heavy: reads were not served on the lock-free path";
    (r, s)
  in
  (* one run per server is decided by host jitter: alternate the two
     servers [rounds] times, the single worker first in even rounds and
     second in odd ones so neither side always runs on the warmer host,
     and keep each side's median-throughput run.  With 5 rounds, the
     single worker first in every round, the gate failed 2 of 12
     standalone smoke runs on a 2-vCPU host; with 31 rounds it failed 7
     of 36 (median ratios 0.94 and 0.92 in two sets), and with 91 none
     of 16 (median 0.94, lowest 0.91).  The smoke then takes about
     40 s. *)
  let rounds = 91 in
  let runs =
    List.init rounds (fun i ->
        if i mod 2 = 0 then
          let s = one 1 in
          (s, one workers)
        else
          let m = one workers in
          (one 1, m))
  in
  let median side =
    List.nth
      (List.sort
         (fun ((a : Load_gen.result), _) ((b : Load_gen.result), _) ->
           compare a.Load_gen.tps b.Load_gen.tps)
         side)
      (rounds / 2)
  in
  let single, _ = median (List.map fst runs) in
  let multi, multi_stats = median (List.map snd runs) in
  (ops, single, multi, multi_stats)

let run ?(smoke = false) ?json () =
  let clients = if smoke then 10_000 else 100_000 in
  let ops = if smoke then 2_000 else 20_000 in
  let connections = 8 and workers = 4 in
  Table.print_title
    (Printf.sprintf
       "Serving layer: %d logical verifying clients over %d connections, %d \
        mixed ops (loopback TCP)"
       clients connections ops);
  let server, served_config = build_server ~members:64 ~seed_entries:8 ~workers in
  let r =
    run_load ~server ~served_config ~clients ~connections ~ops ~pulls:1 ()
  in
  Net_server.stop server;
  let s = Net_server.stats server in
  (* the bench is a checker first: any unverified or abandoned traffic
     voids the numbers *)
  gate (r.Load_gen.verify_failures = 0) "cryptographic verification failed";
  gate (r.Load_gen.transport_failures = 0) "ops abandoned or refused";
  gate (r.Load_gen.pulls_failed = 0) "replica pull failed";
  gate (r.Load_gen.ops = ops) "op budget not fully spent";
  gate (r.Load_gen.pulls_ok = 1) "replica pull did not complete";
  gate (r.Load_gen.tps > 0.) "non-positive throughput";
  gate
    (r.Load_gen.p50_us <= r.Load_gen.p95_us
    && r.Load_gen.p95_us <= r.Load_gen.p99_us
    && r.Load_gen.p99_us <= r.Load_gen.max_us)
    "percentiles out of order";
  gate
    (r.Load_gen.read_ops + r.Load_gen.write_ops = r.Load_gen.ops)
    "read/write split does not cover all ops";
  gate (s.Net_server.read_served > 0) "no request took the lock-free read path";
  gate (s.Net_server.framing_errors = 0) "server saw framing errors";
  let heavy_ops, hs, hm, hm_stats =
    run_read_heavy ~smoke ~clients:(min clients 10_000) ~connections ~workers
  in
  let cores = Domain.recommended_domain_count () in
  (* on a multi-core host, parallel read dispatch must at least hold the
     single-worker line (0.9 tolerance absorbs scheduler jitter); a
     1-core CI host cannot witness parallelism, so the gate is waived
     with an honest note *)
  if cores >= 2 then
    gate
      (hm.Load_gen.tps >= 0.9 *. hs.Load_gen.tps)
      (Printf.sprintf
         "read-heavy: %d-worker throughput (%.0f ops/s) fell below \
          single-worker (%.0f ops/s)"
         workers hm.Load_gen.tps hs.Load_gen.tps)
  else
    Printf.printf
      "note: host reports %d core(s); multi>=single read-throughput gate \
       waived (no parallelism to witness)\n"
      cores;
  Table.print_table
    ~header:[ "metric"; "value" ]
    [
      [ "ops (append/verify/lineage)";
        Printf.sprintf "%d (%d/%d/%d)" r.Load_gen.ops r.Load_gen.appends
          r.Load_gen.verifies r.Load_gen.lineages ];
      [ "replica pulls"; Printf.sprintf "%d ok" r.Load_gen.pulls_ok ];
      [ "sustained"; Printf.sprintf "%s ops/s" (Table.human_rate r.Load_gen.tps) ];
      [ "p50 / p95 / p99 (ms)";
        Printf.sprintf "%s / %s / %s"
          (Table.human_ms (r.Load_gen.p50_us /. 1000.))
          (Table.human_ms (r.Load_gen.p95_us /. 1000.))
          (Table.human_ms (r.Load_gen.p99_us /. 1000.)) ];
      [ "p99.9 / max (ms)";
        Printf.sprintf "%s / %s"
          (Table.human_ms (r.Load_gen.p999_us /. 1000.))
          (Table.human_ms (r.Load_gen.max_us /. 1000.)) ];
      [ "read p50 / p95 / p99 (ms)";
        Printf.sprintf "%s / %s / %s  (%d ops)"
          (Table.human_ms (r.Load_gen.read_p50_us /. 1000.))
          (Table.human_ms (r.Load_gen.read_p95_us /. 1000.))
          (Table.human_ms (r.Load_gen.read_p99_us /. 1000.))
          r.Load_gen.read_ops ];
      [ "write p50 / p95 / p99 (ms)";
        Printf.sprintf "%s / %s / %s  (%d ops)"
          (Table.human_ms (r.Load_gen.write_p50_us /. 1000.))
          (Table.human_ms (r.Load_gen.write_p95_us /. 1000.))
          (Table.human_ms (r.Load_gen.write_p99_us /. 1000.))
          r.Load_gen.write_ops ];
      [ "server"; Printf.sprintf "%d conns accepted, %d requests served"
          s.Net_server.accepted s.Net_server.served ];
      [ "lock-free reads"; Printf.sprintf "%d of %d requests"
          s.Net_server.read_served s.Net_server.served ];
      [ Printf.sprintf "read-heavy 95/5 (%d ops)" heavy_ops;
        Printf.sprintf "1 worker %s ops/s  /  %d workers %s ops/s"
          (Table.human_rate hs.Load_gen.tps) workers
          (Table.human_rate hm.Load_gen.tps) ];
    ];
  match json with
  | None -> ()
  | Some path ->
      let open Json_out in
      write_file path
        (Obj
           [
             ("figure", Str "serve");
             ("logical_clients", Int r.Load_gen.logical_clients);
             ("connections", Int r.Load_gen.connections);
             ("ops", Int r.Load_gen.ops);
             ("appends", Int r.Load_gen.appends);
             ("verifies", Int r.Load_gen.verifies);
             ("lineages", Int r.Load_gen.lineages);
             ("pulls_ok", Int r.Load_gen.pulls_ok);
             ("transport_failures", Int r.Load_gen.transport_failures);
             ("verify_failures", Int r.Load_gen.verify_failures);
             ("duration_s", Float r.Load_gen.duration_s);
             ("tps", Float r.Load_gen.tps);
             ("mean_us", Float r.Load_gen.mean_us);
             ("p50_us", Float r.Load_gen.p50_us);
             ("p95_us", Float r.Load_gen.p95_us);
             ("p99_us", Float r.Load_gen.p99_us);
             ("p999_us", Float r.Load_gen.p999_us);
             ("max_us", Float r.Load_gen.max_us);
             ("read_ops", Int r.Load_gen.read_ops);
             ("write_ops", Int r.Load_gen.write_ops);
             ("read_mean_us", Float r.Load_gen.read_mean_us);
             ("read_p50_us", Float r.Load_gen.read_p50_us);
             ("read_p95_us", Float r.Load_gen.read_p95_us);
             ("read_p99_us", Float r.Load_gen.read_p99_us);
             ("read_max_us", Float r.Load_gen.read_max_us);
             ("write_mean_us", Float r.Load_gen.write_mean_us);
             ("write_p50_us", Float r.Load_gen.write_p50_us);
             ("write_p95_us", Float r.Load_gen.write_p95_us);
             ("write_p99_us", Float r.Load_gen.write_p99_us);
             ("write_max_us", Float r.Load_gen.write_max_us);
             ( "read_heavy",
               Obj
                 [
                   ("read_ratio", Float 0.95);
                   ("heavy_ops", Int heavy_ops);
                   ("single_worker_tps", Float hs.Load_gen.tps);
                   ("multi_worker_tps", Float hm.Load_gen.tps);
                   ("multi_workers", Int workers);
                   ("multi_read_served", Int hm_stats.Net_server.read_served);
                   ("host_cores", Int cores);
                   ( "read_heavy_read_p99_us",
                     Float hm.Load_gen.read_p99_us );
                 ] );
             ( "server",
               Obj
                 [
                   ("accepted", Int s.Net_server.accepted);
                   ("refused", Int s.Net_server.refused);
                   ("served", Int s.Net_server.served);
                   ("read_served", Int s.Net_server.read_served);
                   ("framing_errors", Int s.Net_server.framing_errors);
                 ] );
           ]);
      Printf.printf "wrote %s\n" path
