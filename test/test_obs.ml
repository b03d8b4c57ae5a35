(* Tests for the observability subsystem: metric registry semantics,
   span tracing under the simulated clock, the verification audit log,
   the exporters, and the instrumentation wired through the stack
   (ledger workload, fault injection, faulty transport). *)

open Ledger_storage
open Ledger_core
open Ledger_timenotary
open Ledger_fault
open Ledger_bench_util
module Obs = Ledger_obs.Obs
module Metrics = Ledger_obs.Metrics
module Trace = Ledger_obs.Trace
module Audit_log = Ledger_obs.Audit_log

let tc = Alcotest.test_case

(* The sinks are process-global; every test starts from a clean slate and
   leaves recording off so no state leaks into other suites. *)
let with_obs ?(time = fun () -> 0L) f =
  Obs.reset ();
  Obs.enable ~time ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_contains what s sub = Alcotest.(check bool) (what ^ ": " ^ sub) true (contains s sub)

(* --- metrics ---------------------------------------------------------- *)

let test_bucket_boundaries () =
  Alcotest.(check int) "0 lands in bucket 0" 0 (Metrics.bucket_index 0.);
  Alcotest.(check int) "negative lands in bucket 0" 0 (Metrics.bucket_index (-7.));
  Alcotest.(check int) "1 lands in bucket 0" 0 (Metrics.bucket_index 1.);
  Alcotest.(check int) "1.5" 1 (Metrics.bucket_index 1.5);
  Alcotest.(check int) "2 exactly on the boundary" 1 (Metrics.bucket_index 2.);
  Alcotest.(check int) "just above 2" 2 (Metrics.bucket_index 2.0001);
  Alcotest.(check int) "1024 exact" 10 (Metrics.bucket_index 1024.);
  Alcotest.(check int) "1025" 11 (Metrics.bucket_index 1025.);
  Alcotest.(check (float 0.)) "ub 0" 1. (Metrics.bucket_upper_bound 0);
  Alcotest.(check (float 0.)) "ub 10" 1024. (Metrics.bucket_upper_bound 10);
  (* boundaries are exact across the range: each upper bound lands in its
     own bucket and the next representable float spills into the next *)
  for i = 0 to 60 do
    let ub = Metrics.bucket_upper_bound i in
    Alcotest.(check int) "ub in own bucket" i (Metrics.bucket_index ub);
    Alcotest.(check int) "ub+ulp in next bucket" (i + 1)
      (Metrics.bucket_index (Float.succ ub))
  done

let test_hist_semantics () =
  with_obs (fun () ->
      List.iter (Metrics.observe "h") [ 0.5; 1.; 2.; 3.; 1024. ];
      match Metrics.hist_snapshot "h" with
      | None -> Alcotest.fail "histogram missing"
      | Some s ->
          Alcotest.(check int) "count" 5 s.Metrics.count;
          Alcotest.(check (float 1e-9)) "sum" 1030.5 s.Metrics.sum;
          Alcotest.(check (float 0.)) "min" 0.5 s.Metrics.min_v;
          Alcotest.(check (float 0.)) "max" 1024. s.Metrics.max_v;
          Alcotest.(check int) "overflow" 0 s.Metrics.overflow;
          Alcotest.(check bool) "bucket occupancy" true
            (s.Metrics.buckets = [ (1., 2); (2., 1); (4., 1); (1024., 1) ]);
          (* rank ceil(0.5×5)=3: the third observation sits in the le=2
             bucket *)
          Alcotest.(check bool) "p50 within bucket bound" true
            (Metrics.approx_quantile "h" 0.5 = Some 2.);
          Alcotest.(check bool) "p100 is last bucket" true
            (Metrics.approx_quantile "h" 1.0 = Some 1024.))

let test_counters_and_gauges () =
  with_obs (fun () ->
      Metrics.incr "c";
      Metrics.incr ~by:4 "c";
      Metrics.set_gauge "g" 2.5;
      Metrics.set_gauge "g" 7.25;
      Alcotest.(check int) "counter accumulates" 5 (Metrics.counter_value "c");
      Alcotest.(check bool) "gauge keeps last" true
        (Metrics.gauge_value "g" = Some 7.25);
      Alcotest.(check int) "missing counter reads 0" 0
        (Metrics.counter_value "nope");
      Alcotest.(check bool) "names sorted with kinds" true
        (Metrics.names () = [ ("c", Metrics.K_counter); ("g", Metrics.K_gauge) ]))

let test_disabled_no_record () =
  Obs.reset ();
  Obs.disable ();
  Metrics.incr "c";
  Metrics.observe "h" 1.;
  Metrics.set_gauge "g" 1.;
  let sp = Trace.enter "x" in
  Alcotest.(check int) "disabled span handle is none" Trace.none sp;
  Trace.exit sp;
  Audit_log.record ~verifier:"t" (Audit_log.Journal 0) Audit_log.Verified;
  Alcotest.(check int) "counter silent" 0 (Metrics.counter_value "c");
  Alcotest.(check bool) "no histogram created" true
    (Metrics.hist_snapshot "h" = None);
  Alcotest.(check bool) "no gauge created" true (Metrics.gauge_value "g" = None);
  Alcotest.(check int) "no spans" 0 (Trace.span_count ());
  Alcotest.(check int) "no audit entries" 0 (Audit_log.size ())

(* --- tracing ---------------------------------------------------------- *)

let test_span_nesting () =
  let clock = Clock.create () in
  with_obs ~time:(fun () -> Clock.now clock) (fun () ->
      let a = Trace.enter "outer" in
      Trace.attr_int a "jsn" 7;
      Clock.advance clock 10L;
      let b = Trace.enter "inner" in
      Clock.advance clock 5L;
      Trace.exit b;
      Clock.advance clock 1L;
      Trace.exit a;
      let outer = List.hd (Trace.find_spans ~name:"outer") in
      let inner = List.hd (Trace.find_spans ~name:"inner") in
      Alcotest.(check int) "outer is a root" 0 outer.Trace.parent;
      Alcotest.(check int) "inner's parent is outer" outer.Trace.id
        inner.Trace.parent;
      Alcotest.(check int) "inner depth" 1 inner.Trace.depth;
      Alcotest.(check int64) "outer start stamped" 0L outer.Trace.start_us;
      Alcotest.(check bool) "outer end stamped" true
        (outer.Trace.end_us = Some 16L);
      Alcotest.(check bool) "inner window" true
        (inner.Trace.start_us = 10L && inner.Trace.end_us = Some 15L);
      Alcotest.(check bool) "seq orders creation" true
        (outer.Trace.seq < inner.Trace.seq);
      Alcotest.(check bool) "attr recorded" true
        (outer.Trace.attrs = [ ("jsn", "7") ]);
      Alcotest.(check int) "everything closed" 0 (Trace.open_spans ());
      (* exception unwinding still closes the span *)
      (try Trace.with_span "boom" (fun () -> failwith "x")
       with Failure _ -> ());
      Alcotest.(check int) "with_span closed on raise" 0 (Trace.open_spans ());
      (* JSON-lines export: one object per span *)
      let lines =
        String.split_on_char '\n' (String.trim (Trace.to_json_lines ()))
      in
      Alcotest.(check int) "one line per span" (Trace.span_count ())
        (List.length lines);
      List.iter
        (fun l ->
          Alcotest.(check bool) "line is a JSON object" true
            (String.length l > 1 && l.[0] = '{'
            && l.[String.length l - 1] = '}'))
        lines;
      check_contains "export" (Trace.to_json_lines ()) "\"name\":\"outer\"";
      check_contains "export" (Trace.to_json_lines ()) "\"attrs\":{\"jsn\":\"7\"}")

(* --- audit log -------------------------------------------------------- *)

let test_audit_coverage () =
  with_obs (fun () ->
      Audit_log.record ~verifier:"a" (Audit_log.Journal 0) Audit_log.Verified;
      Audit_log.record ~verifier:"b" (Audit_log.Receipt 1) Audit_log.Verified;
      Audit_log.record ~verifier:"a" (Audit_log.Journal 2)
        (Audit_log.Repudiated "bad proof");
      (* outside the ledger: must not count *)
      Audit_log.record ~verifier:"a" (Audit_log.Journal 7) Audit_log.Verified;
      (* not a journal subject: must not count *)
      Audit_log.record ~verifier:"a" (Audit_log.Clue "k") Audit_log.Verified;
      let c = Audit_log.coverage ~ledger_size:4 in
      Alcotest.(check int) "verified journals" 2 c.Audit_log.verified_jsns;
      Alcotest.(check int) "total journals" 4 c.Audit_log.total_jsns;
      Alcotest.(check (float 1e-9)) "ratio" 0.5 c.Audit_log.ratio;
      Alcotest.(check (float 0.)) "empty ledger is covered" 1.0
        (Audit_log.coverage ~ledger_size:0).Audit_log.ratio;
      Alcotest.(check int) "all attempts logged" 5 (Audit_log.size ());
      (* re-verifying the same journal does not double count *)
      Audit_log.record ~verifier:"c" (Audit_log.Journal 0) Audit_log.Verified;
      Alcotest.(check int) "dedup across verifiers" 2
        (Audit_log.coverage ~ledger_size:4).Audit_log.verified_jsns;
      (* entries come back oldest first with monotone seq *)
      let seqs = List.map (fun e -> e.Audit_log.seq) (Audit_log.entries ()) in
      Alcotest.(check bool) "entries oldest first" true
        (seqs = List.sort compare seqs))

(* --- exporters -------------------------------------------------------- *)

let test_exporters () =
  with_obs (fun () ->
      Metrics.incr ~by:3 "requests_total";
      Metrics.set_gauge "depth" 2.5;
      List.iter (Metrics.observe "lat") [ 1.; 3.; 100. ];
      Audit_log.record ~verifier:"x" (Audit_log.Journal 0) Audit_log.Verified;
      ignore (Trace.with_span "s" (fun () -> 1));
      let prom = Obs.to_prometheus_text () in
      List.iter
        (check_contains "prometheus" prom)
        [
          "# TYPE requests_total counter";
          "requests_total 3";
          "# TYPE depth gauge";
          "depth 2.5";
          "# TYPE lat histogram";
          "lat_bucket{le=\"1\"} 1";
          "lat_bucket{le=\"4\"} 2";
          "lat_bucket{le=\"128\"} 3";
          "lat_bucket{le=\"+Inf\"} 3";
          "lat_sum 104";
          "lat_count 3";
        ];
      let buf = Buffer.create 256 in
      let ppf = Format.formatter_of_buffer buf in
      Obs.dump ppf;
      Format.pp_print_flush ppf ();
      let d = Buffer.contents buf in
      List.iter
        (check_contains "dump" d)
        [
          "== metrics ==";
          "requests_total";
          "== trace ==";
          "spans=1 open=0";
          "== audit log ==";
          "entries=1";
        ])

(* --- instrumented workload ------------------------------------------- *)

let build_ledger clock =
  let pool = Tsa.pool [ Tsa.create ~endorse_rtt_ms:1. ~clock "obs-tsa" ] in
  let tl = T_ledger.create ~clock ~tsa:pool () in
  let config =
    { Ledger.default_config with name = "obs"; block_size = 4; fam_delta = 3;
      crypto = Crypto_profile.default_simulated }
  in
  let ledger = Ledger.create ~config ~t_ledger:tl ~tsa:pool ~clock () in
  let user, key =
    Ledger.new_member ledger ~name:"obs-user" ~role:Roles.Regular_user
  in
  let receipts = ref [] in
  for i = 0 to 9 do
    Clock.advance_ms clock 50.;
    receipts :=
      Ledger.append ledger ~member:user ~priv:key
        ~clues:[ "c" ^ string_of_int (i mod 2) ]
        (Bytes.of_string (Printf.sprintf "obs %d" i))
      :: !receipts
  done;
  Clock.advance_ms clock 1100.;
  (match Ledger.anchor_via_t_ledger ledger with
  | Ok _ -> ()
  | Error _ -> assert false);
  Ledger.seal_block ledger;
  (ledger, !receipts)

let test_instrumented_workload () =
  let clock = Clock.create () in
  with_obs ~time:(fun () -> Clock.now clock) (fun () ->
      let ledger, receipts = build_ledger clock in
      let n = Ledger.size ledger in
      (* server-side proof check on every journal, then every receipt *)
      for jsn = 0 to n - 1 do
        let proof = Ledger.get_proof ledger jsn in
        Alcotest.(check bool) "existence verified" true
          (Ledger.verify_existence ledger ~jsn ~payload_digest:None proof)
      done;
      List.iter (fun r -> ignore (Ledger.verify_receipt ledger r)) receipts;
      let report = Audit.run ~receipts ledger in
      Alcotest.(check bool) "audit ok" true report.Audit.ok;
      (* counters reflect the workload exactly where the workload is exact *)
      Alcotest.(check int) "receipts issued" 10
        (Metrics.counter_value "ledger_receipts_issued_total");
      Alcotest.(check int) "proofs served" n
        (Metrics.counter_value "ledger_proofs_served_total");
      Alcotest.(check bool) "appends include anchor journals" true
        (Metrics.counter_value "ledger_appends_total" >= 10);
      Alcotest.(check int) "anchors" 1
        (Metrics.counter_value "ledger_time_anchors_total");
      (* the acceptance-criteria histograms are populated *)
      Alcotest.(check bool) "proof-size histogram" true
        (match Metrics.hist_snapshot "ledger_proof_bytes" with
        | Some s -> s.Metrics.count >= n && s.Metrics.min_v > 0.
        | None -> false);
      Alcotest.(check bool) "verify-latency histogram" true
        (match Metrics.hist_snapshot "verify_latency_us" with
        | Some s -> s.Metrics.count >= n
        | None -> false);
      (* the audit log covers the whole ledger *)
      Alcotest.(check (float 0.)) "coverage 100%" 1.0
        (Audit_log.coverage ~ledger_size:n).Audit_log.ratio;
      (* spans: every commit traced, everything closed *)
      Alcotest.(check bool) "commit spans" true
        (List.length (Trace.find_spans ~name:"ledger.commit") >= 10);
      Alcotest.(check bool) "persist children" true
        (List.length (Trace.find_spans ~name:"persist") >= 10);
      Alcotest.(check int) "no span leaks" 0 (Trace.open_spans ()))

(* --- chaos: fault injection vs. metrics ------------------------------- *)

let fresh_dir () =
  let d = Filename.temp_file "obschaos" "dir" in
  Sys.remove d;
  d

let test_fault_counters_match_schedule () =
  let clock = Clock.create () in
  with_obs ~time:(fun () -> Clock.now clock) (fun () ->
      let ledger, _ = build_ledger clock in
      let dir = fresh_dir () in
      Ledger.save ledger ~dir;
      let plan =
        Fault_plan.plan ~seed:42 ~bit_flips:2 ~truncations:1 ~zero_ranges:1
          ~dir ()
      in
      let kind_count p =
        List.length
          (List.filter (fun f -> p f.Fault_plan.kind) (Fault_plan.faults plan))
      in
      let flips = kind_count (function Fault_plan.Bit_flip _ -> true | _ -> false) in
      let truncs =
        kind_count (function Fault_plan.Truncate_tail _ -> true | _ -> false)
      in
      let zeros =
        kind_count (function Fault_plan.Zero_range _ -> true | _ -> false)
      in
      Alcotest.(check (list int)) "plan drew the requested schedule"
        [ 2; 1; 1 ] [ flips; truncs; zeros ];
      Fault_plan.apply plan ~dir;
      Alcotest.(check int) "injected total" 4
        (Metrics.counter_value "fault_injected_total");
      Alcotest.(check int) "bit flips" flips
        (Metrics.counter_value "fault_bit_flip_total");
      Alcotest.(check int) "truncations" truncs
        (Metrics.counter_value "fault_truncate_total");
      Alcotest.(check int) "zero ranges" zeros
        (Metrics.counter_value "fault_zero_range_total"))

let test_faulty_transport_counters () =
  let clock = Clock.create () in
  with_obs ~time:(fun () -> Clock.now clock) (fun () ->
      let ledger, _ = build_ledger clock in
      let rng = Det_rng.create ~seed:5 in
      let ft =
        Faulty_transport.create ~rng
          ~config:
            (Faulty_transport.lossy ~drop:0.2 ~dup:0.1 ~garble:0.1
               ~reorder:0.1 ~delay:0.2 ())
          ~clock (Service.handle ledger)
      in
      let t = Faulty_transport.transport ft in
      for _ = 1 to 40 do
        ignore (Transport.request ~clock t (Service.Client.make_get_commitment ()))
      done;
      let s = Faulty_transport.stats ft in
      Alcotest.(check bool) "schedule injected faults" true
        (s.Faulty_transport.drops + s.Faulty_transport.garbles
         + s.Faulty_transport.dups + s.Faulty_transport.reorders
        > 0);
      List.iter
        (fun (what, expected) ->
          Alcotest.(check int)
            ("faulty_transport_" ^ what ^ "_total")
            expected
            (Metrics.counter_value ("faulty_transport_" ^ what ^ "_total")))
        [
          ("calls", s.Faulty_transport.calls);
          ("drops", s.Faulty_transport.drops);
          ("dups", s.Faulty_transport.dups);
          ("garbles", s.Faulty_transport.garbles);
          ("reorders", s.Faulty_transport.reorders);
          ("delays", s.Faulty_transport.delays);
        ];
      (* every retry attempt is one call into the faulty channel *)
      Alcotest.(check int) "attempts equal channel calls"
        s.Faulty_transport.calls
        (Metrics.counter_value "transport_attempts_total"))

(* One audit entry per verdict.  [Verify_api.verify] and
   [Verify_api.verify_sharded] each record their outcome once, and the
   ledger checks under them record nothing; the sharded entry keeps its
   "shard<i>:" verifier, so per-shard coverage still adds up.  A
   client-level existence or clue check used to add the ledger's own
   entry, and the sharded verifier one more. *)
let test_one_entry_per_verdict () =
  let clock = Clock.create () in
  with_obs ~time:(fun () -> Clock.now clock) (fun () ->
      let ledger, receipts = build_ledger clock in
      let targets =
        List.init (Ledger.size ledger) (fun jsn ->
            Verify_api.Existence { jsn; payload_digest = None })
        @ [ Verify_api.Clue { key = "c0" }; Verify_api.Clue { key = "c1" } ]
        @ List.map (fun r -> Verify_api.Receipt_check r) receipts
      in
      let before = Audit_log.size () in
      List.iter
        (fun level ->
          List.iter
            (fun target ->
              let o = Verify_api.verify ledger ~level target in
              Alcotest.(check bool) "verified" true o.Verify_api.ok)
            targets)
        [ Verify_api.Server; Verify_api.Client ];
      Alcotest.(check int) "unsharded: one entry per verdict"
        (2 * List.length targets)
        (Audit_log.size () - before));
  with_obs ~time:(fun () -> Clock.now clock) (fun () ->
      let module SL = Ledger_shard.Sharded_ledger in
      let module SV = Ledger_shard.Verify_api in
      let config =
        {
          SL.base =
            { Ledger.default_config with name = "obs-shards";
              crypto = Crypto_profile.default_simulated };
          shards = 2;
        }
      in
      let fleet = SL.create ~config ~clock () in
      let user, key =
        SL.new_member fleet ~name:"obs-user" ~role:Roles.Regular_user
      in
      for i = 0 to 7 do
        Clock.advance_ms clock 10.;
        ignore
          (SL.append fleet ~member:user ~priv:key
             ~clues:[ "s" ^ string_of_int i ]
             (Bytes.of_string (Printf.sprintf "shard entry %d" i)))
      done;
      let before = Audit_log.size () and verdicts = ref 0 in
      for s = 0 to 1 do
        for jsn = 0 to Ledger.size (SL.shard fleet s) - 1 do
          List.iter
            (fun level ->
              let target = SV.Existence { jsn; payload_digest = None } in
              let o = SV.verify_sharded fleet ~level ~shard:s target in
              Alcotest.(check bool) "verified" true o.SV.outcome.SV.ok;
              incr verdicts)
            [ SV.Server; SV.Client ]
        done
      done;
      Alcotest.(check bool) "both shards hold entries" true (!verdicts > 4);
      Alcotest.(check int) "sharded: one entry per verdict" !verdicts
        (Audit_log.size () - before);
      for s = 0 to 1 do
        let c =
          Audit_log.coverage_where
            ~verifier_prefix:(Printf.sprintf "shard%d:" s)
            ~ledger_size:(Ledger.size (SL.shard fleet s))
        in
        Alcotest.(check (float 0.)) "per-shard coverage" 1.0 c.Audit_log.ratio
      done)

let suite =
  [
    tc "histogram bucket boundaries" `Quick test_bucket_boundaries;
    tc "histogram semantics" `Quick test_hist_semantics;
    tc "counters and gauges" `Quick test_counters_and_gauges;
    tc "disabled sink records nothing" `Quick test_disabled_no_record;
    tc "span nesting under simulated clock" `Quick test_span_nesting;
    tc "audit-log coverage" `Quick test_audit_coverage;
    tc "dump and prometheus exporters" `Quick test_exporters;
    tc "instrumented ledger workload" `Quick test_instrumented_workload;
    tc "fault counters match schedule" `Quick test_fault_counters_match_schedule;
    tc "faulty transport counters" `Quick test_faulty_transport_counters;
    tc "one audit entry per verdict, unsharded and sharded" `Quick
      test_one_entry_per_verdict;
  ]
