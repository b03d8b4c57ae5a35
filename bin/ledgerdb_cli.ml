(* ledgerdb — command-line front end for the LedgerDB reproduction.

   Subcommands:
     demo     build a small ledger, tamper (optionally), audit it
     attack   replay the Fig. 5 timestamp attacks
     systems  print the Table I system comparison
     snapshot build a ledger, save it to disk, reload, re-audit
     stats    instrumented run: metrics dump, trace, verification coverage
     health   survivability walkthrough: quarantine, degraded seal, repair,
              and (with --equivocate) gossip fork evidence
     query    verifiable range/prefix queries with completeness proofs and
              verifiable pagination (optionally scattered across shards)
     serve    serve the wire protocol on a real TCP socket (multi-domain)
     load     drive a serving endpoint with verifying load clients
   Run `ledgerdb_cli <cmd> --help` for options. *)

open Cmdliner
open Ledger_crypto
open Ledger_storage
open Ledger_core
open Ledger_timenotary
open Ledger_net

(* --- demo ------------------------------------------------------------------ *)

(* Sharded demo: route the same workload across N shards, seal an epoch
   super-root, verify every entry against it, audit every shard. *)
let run_demo_sharded journals batch shards real_crypto =
  let module SL = Ledger_shard.Sharded_ledger in
  let clock = Clock.create () in
  let pool = Tsa.pool [ Tsa.create ~clock "cli-tsa" ] in
  let config =
    {
      SL.base =
        { Ledger.default_config with name = "cli"; block_size = 16;
          fam_delta = 8;
          crypto =
            (if real_crypto then Crypto_profile.Real
             else Crypto_profile.default_simulated) };
      shards;
    }
  in
  let fleet = SL.create ~config ~clock () in
  let user, key = SL.new_member fleet ~name:"cli-user" ~role:Roles.Regular_user in
  let entry i =
    ( Bytes.of_string (Printf.sprintf "record %d" i),
      [ "item-" ^ string_of_int (i mod 5) ] )
  in
  let committed = ref [] in
  let i = ref 0 in
  while !i < journals do
    Clock.advance_ms clock 100.;
    if batch > 1 then begin
      let n = min batch (journals - !i) in
      let entries = List.init n (fun j -> entry (!i + j)) in
      committed :=
        List.rev_append
          (SL.append_batch fleet ~member:user ~priv:key ~seal:false entries)
          !committed;
      i := !i + n
    end
    else begin
      let payload, clues = entry !i in
      committed := SL.append fleet ~member:user ~priv:key ~clues payload :: !committed;
      incr i
    end
  done;
  match SL.seal_epoch fleet with
  | Error msg ->
      Printf.printf "epoch seal refused: %s\n" msg;
      1
  | Ok sealed ->
      let super = Ledger_shard.Super_root.commitment sealed in
      let token = SL.anchor_epoch fleet pool in
      Printf.printf
        "fleet built: %d journals over %d shards, epoch %d super-root %s \
         (TSA-anchored at %Ldus)\n"
        (SL.total_size fleet) shards sealed.Ledger_shard.Super_root.epoch
        (Hash.short_hex super) token.Tsa.timestamp;
      for s = 0 to shards - 1 do
        Printf.printf "  shard %d: %d journals, root %s\n" s
          (Ledger.size (SL.shard fleet s))
          (Hash.short_hex sealed.Ledger_shard.Super_root.shard_roots.(s))
      done;
      let all_verified =
        List.for_all
          (fun (shard, (r : Receipt.t)) ->
            let o =
              Ledger_shard.Verify_api.verify_sharded fleet
                ~level:Ledger_shard.Verify_api.Client ~shard
                (Ledger_shard.Verify_api.Existence
                   { jsn = r.Receipt.jsn; payload_digest = None })
            in
            o.Ledger_shard.Verify_api.outcome.Ledger_shard.Verify_api.ok)
          !committed
      in
      Printf.printf "cross-shard verification: %s (%d entries vs super-root)\n"
        (if all_verified then "ok" else "FAILED")
        (List.length !committed);
      let audits_ok =
        List.for_all
          (fun s -> (Audit.run (SL.shard fleet s)).Audit.ok)
          (List.init shards Fun.id)
      in
      Printf.printf "per-shard audits: %s\n" (if audits_ok then "ok" else "FAILED");
      if all_verified && audits_ok then 0 else 1

let run_demo journals batch shards tamper real_crypto domains =
  (match domains with
  | None -> ()
  | Some n ->
      Ledger_par.Domain_pool.set_default
        (Ledger_par.Domain_pool.create ~domains:n ()));
  if shards > 1 then run_demo_sharded journals batch shards real_crypto
  else
  let clock = Clock.create () in
  let pool = Tsa.pool [ Tsa.create ~clock "cli-tsa" ] in
  let tl = T_ledger.create ~clock ~tsa:pool () in
  let config =
    { Ledger.default_config with name = "cli"; block_size = 16; fam_delta = 8;
      crypto =
        (if real_crypto then Crypto_profile.Real
         else Crypto_profile.default_simulated) }
  in
  let ledger = Ledger.create ~config ~t_ledger:tl ~tsa:pool ~clock () in
  let user, key = Ledger.new_member ledger ~name:"cli-user" ~role:Roles.Regular_user in
  let receipts = ref [] in
  let batcher =
    if batch > 1 then
      Some
        (Batcher.create
           ~policy:{ Batcher.max_entries = batch;
                     (* the demo clock jumps 100ms per append, so leave
                        flushing to the size bound alone *)
                     max_delay_us = Int64.max_int; seal_on_flush = false }
           ledger ~member:user ~priv:key)
    else None
  in
  for i = 0 to journals - 1 do
    Clock.advance_ms clock 100.;
    let clues = [ "item-" ^ string_of_int (i mod 5) ] in
    let payload = Bytes.of_string (Printf.sprintf "record %d" i) in
    (match batcher with
    | None ->
        receipts := Ledger.append ledger ~member:user ~priv:key ~clues payload
                    :: !receipts
    | Some b -> receipts := List.rev_append (Batcher.submit b ~clues payload) !receipts);
    if (i + 1) mod 8 = 0 then begin
      Clock.advance_ms clock 1000.;
      match Ledger.anchor_via_t_ledger ledger with
      | Ok _ -> ()
      | Error _ -> prerr_endline "warning: anchor rejected"
    end
  done;
  (match batcher with
  | None -> ()
  | Some b ->
      receipts := List.rev_append (Batcher.flush b) !receipts;
      Printf.printf "batched commits: %d flushes of up to %d entries\n"
        (Batcher.flushes b) batch);
  Ledger.seal_block ledger;
  Printf.printf "ledger built: %d journals, %d blocks, commitment %s\n"
    (Ledger.size ledger) (Ledger.block_count ledger)
    (Hash.short_hex (Ledger.commitment ledger));
  (match tamper with
  | Some jsn when jsn >= 0 && jsn < Ledger.size ledger ->
      Printf.printf "tampering with journal %d (threat-B)...\n" jsn;
      Ledger.Unsafe.rewrite_payload ledger ~jsn (Bytes.of_string "TAMPERED")
  | Some jsn -> Printf.printf "tamper target %d out of range, skipping\n" jsn
  | None -> ());
  let report = Audit.run ~receipts:!receipts ledger in
  Format.printf "%a@." Audit.pp_report report;
  if report.Audit.ok then 0 else 1

let demo_cmd =
  let journals =
    Arg.(value & opt int 32 & info [ "n"; "journals" ] ~doc:"Journals to append.")
  in
  let batch =
    Arg.(value & opt int 1
         & info [ "batch" ] ~docv:"N"
             ~doc:"Commit appends through a batcher flushing every $(docv) \
                   entries (1 = unbatched); the resulting history is \
                   byte-identical, only the cost profile changes.")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Spread the workload over $(docv) ledger shards under one \
                   epoch super-root (1 = the plain unsharded demo); every \
                   entry is then verified cross-shard against the fleet \
                   digest.")
  in
  let tamper =
    Arg.(value & opt (some int) None
         & info [ "tamper" ] ~docv:"JSN" ~doc:"Rewrite journal $(docv) before auditing.")
  in
  let real =
    Arg.(value & flag
         & info [ "real-crypto" ] ~doc:"Use real ECDSA instead of the simulated profile.")
  in
  let domains =
    Arg.(value & opt (some int) None
         & info [ "domains" ] ~docv:"N"
             ~doc:"Size the process-wide domain pool to $(docv) (caller \
                   included) for parallel hashing, signature checking and \
                   shard fan-out.  Defaults to \\$LEDGERDB_DOMAINS or the \
                   host's recommended domain count; the committed history \
                   is byte-identical at every setting.")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Build a ledger, optionally tamper, run a Dasein audit")
    Term.(const run_demo $ journals $ batch $ shards $ tamper $ real $ domains)

(* --- attack ----------------------------------------------------------------- *)

let run_attack delta_tau delays =
  let outcomes = Attack.sweep ~delta_tau_s:delta_tau ~delays_s:delays in
  List.iter
    (fun (o : Attack.outcome) ->
      Printf.printf "%-26s delay=%10.1fs window=%8.2fs bounded=%b\n"
        o.Attack.protocol o.Attack.attempted_delay_s o.Attack.window_s
        o.Attack.bounded)
    outcomes;
  0

let attack_cmd =
  let delta_tau =
    Arg.(value & opt float 1.0 & info [ "delta-tau" ] ~doc:"Notary interval (s).")
  in
  let delays =
    Arg.(value & opt (list float) [ 1.; 10.; 100. ]
         & info [ "delays" ] ~doc:"Adversary stall times (s).")
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Replay the Fig. 5 timestamp attacks")
    Term.(const run_attack $ delta_tau $ delays)

(* --- systems ----------------------------------------------------------------- *)

let run_systems () =
  List.iter
    (fun p ->
      print_endline (String.concat " | " (Ledger_baselines.System_profile.to_row p)))
    Ledger_baselines.System_profile.all;
  0

let systems_cmd =
  Cmd.v
    (Cmd.info "systems" ~doc:"Print the Table I ledger-system comparison")
    Term.(const run_systems $ const ())

(* --- snapshot ----------------------------------------------------------------- *)

let run_snapshot journals dir =
  let clock = Clock.create () in
  let pool = Tsa.pool [ Tsa.create ~clock "snap-tsa" ] in
  let tl = T_ledger.create ~clock ~tsa:pool () in
  let config =
    { Ledger.default_config with name = "snapshot"; block_size = 16;
      fam_delta = 8; crypto = Crypto_profile.default_simulated }
  in
  let ledger = Ledger.create ~config ~t_ledger:tl ~tsa:pool ~clock () in
  let user, key = Ledger.new_member ledger ~name:"snap-user" ~role:Roles.Regular_user in
  for i = 0 to journals - 1 do
    Clock.advance_ms clock 50.;
    ignore
      (Ledger.append ledger ~member:user ~priv:key
         ~clues:[ "item-" ^ string_of_int (i mod 4) ]
         (Bytes.of_string (Printf.sprintf "record %d" i)))
  done;
  Ledger.seal_block ledger;
  Ledger.save ledger ~dir;
  Printf.printf "saved %d journals to %s (commitment %s)
" (Ledger.size ledger)
    dir
    (Hash.short_hex (Ledger.commitment ledger));
  match Ledger.load ~config ~t_ledger:tl ~tsa:pool ~clock ~dir () with
  | Error e ->
      Printf.printf "reload FAILED: %s
" e;
      1
  | Ok restored ->
      Printf.printf "reloaded %d journals (commitment %s)
"
        (Ledger.size restored)
        (Hash.short_hex (Ledger.commitment restored));
      let report = Audit.run restored in
      Format.printf "%a@." Audit.pp_report report;
      if report.Audit.ok then 0 else 1

let snapshot_cmd =
  let journals =
    Arg.(value & opt int 64 & info [ "n"; "journals" ] ~doc:"Journals to append.")
  in
  let dir =
    Arg.(value & opt string "/tmp/ledgerdb-snapshot"
         & info [ "dir" ] ~doc:"Snapshot directory.")
  in
  Cmd.v
    (Cmd.info "snapshot" ~doc:"Save a ledger to disk, reload it, re-audit")
    Term.(const run_snapshot $ journals $ dir)

(* --- stats ----------------------------------------------------------------- *)

(* Sharded stats: the audit log tags each verdict with a
   ["shard<i>:server"/"shard<i>:client"] verifier, so verification
   coverage can be broken down per shard with [coverage_where]. *)
let run_stats_sharded journals shards trace_out prometheus =
  let module Obs = Ledger_obs.Obs in
  let module Trace = Ledger_obs.Trace in
  let module Audit_log = Ledger_obs.Audit_log in
  let module SL = Ledger_shard.Sharded_ledger in
  let module SV = Ledger_shard.Verify_api in
  let clock = Clock.create () in
  Obs.reset ();
  Obs.enable ~time:(fun () -> Clock.now clock) ();
  let config =
    {
      SL.base =
        { Ledger.default_config with name = "stats"; block_size = 16;
          fam_delta = 8; crypto = Crypto_profile.default_simulated };
      shards;
    }
  in
  let fleet = SL.create ~config ~clock () in
  let user, key = SL.new_member fleet ~name:"stats-user" ~role:Roles.Regular_user in
  for i = 0 to journals - 1 do
    Clock.advance_ms clock 100.;
    ignore
      (SL.append fleet ~member:user ~priv:key
         ~clues:[ "item-" ^ string_of_int (i mod 5) ]
         (Bytes.of_string (Printf.sprintf "record %d" i)))
  done;
  let sealed = SL.seal_epoch fleet in
  (match sealed with
  | Ok s ->
      Printf.printf "epoch %d sealed over %d shards, super-root %s\n"
        s.Ledger_shard.Super_root.epoch shards
        (Hash.short_hex (Ledger_shard.Super_root.commitment s))
  | Error msg -> Printf.printf "epoch seal refused: %s\n" msg);
  (* touch every journal on every shard at both trust levels so the
     per-shard audit-log slices each cover their whole shard *)
  for s = 0 to shards - 1 do
    for jsn = 0 to Ledger.size (SL.shard fleet s) - 1 do
      let target = SV.Existence { jsn; payload_digest = None } in
      ignore (SV.verify_sharded fleet ~level:SV.Server ~shard:s target);
      ignore (SV.verify_sharded fleet ~level:SV.Client ~shard:s target)
    done
  done;
  if prometheus then print_string (Obs.to_prometheus_text ())
  else Obs.dump Format.std_formatter;
  let all_covered = ref true in
  Printf.printf "\nper-shard verification coverage:\n";
  for s = 0 to shards - 1 do
    let size = Ledger.size (SL.shard fleet s) in
    let c =
      Audit_log.coverage_where
        ~verifier_prefix:(Printf.sprintf "shard%d:" s)
        ~ledger_size:size
    in
    if c.Audit_log.ratio < 1.0 then all_covered := false;
    Printf.printf "  shard %d: %d/%d journals (%.1f%%)\n" s
      c.Audit_log.verified_jsns c.Audit_log.total_jsns
      (100. *. c.Audit_log.ratio)
  done;
  (match trace_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      let lines = Trace.to_json_lines () in
      output_string oc lines;
      if String.length lines > 0 then output_char oc '\n';
      close_out oc;
      Printf.printf "trace written to %s (%d spans)\n" path (Trace.span_count ()));
  Obs.disable ();
  if Result.is_ok sealed && !all_covered then 0 else 1

let run_stats journals shards trace_out prometheus =
  if shards > 1 then run_stats_sharded journals shards trace_out prometheus
  else
  let module Obs = Ledger_obs.Obs in
  let module Trace = Ledger_obs.Trace in
  let module Audit_log = Ledger_obs.Audit_log in
  let clock = Clock.create () in
  Obs.reset ();
  Obs.enable ~time:(fun () -> Clock.now clock) ();
  let pool = Tsa.pool [ Tsa.create ~clock "stats-tsa" ] in
  let tl = T_ledger.create ~clock ~tsa:pool () in
  let config =
    { Ledger.default_config with name = "stats"; block_size = 16; fam_delta = 8;
      crypto = Crypto_profile.default_simulated }
  in
  let ledger = Ledger.create ~config ~t_ledger:tl ~tsa:pool ~clock () in
  let user, key =
    Ledger.new_member ledger ~name:"stats-user" ~role:Roles.Regular_user
  in
  let receipts = ref [] in
  for i = 0 to journals - 1 do
    Clock.advance_ms clock 100.;
    let r =
      Ledger.append ledger ~member:user ~priv:key
        ~clues:[ "item-" ^ string_of_int (i mod 5) ]
        (Bytes.of_string (Printf.sprintf "record %d" i))
    in
    receipts := r :: !receipts;
    if (i + 1) mod 8 = 0 then begin
      Clock.advance_ms clock 1000.;
      match Ledger.anchor_via_t_ledger ledger with
      | Ok _ -> ()
      | Error _ -> prerr_endline "warning: anchor rejected"
    end
  done;
  Ledger.seal_block ledger;
  (* touch every journal with a client-side proof check, then check every
     receipt, each verdict recorded once: the audit log ends up covering
     the whole ledger *)
  for jsn = 0 to Ledger.size ledger - 1 do
    let o =
      Verify_api.verify ledger ~level:Verify_api.Client
        (Verify_api.Existence { jsn; payload_digest = None })
    in
    if not o.Verify_api.ok then
      Printf.eprintf "existence check FAILED at jsn %d\n" jsn
  done;
  List.iter
    (fun r ->
      ignore (Verify_api.verify ledger ~level:Verify_api.Client (Verify_api.Receipt_check r)))
    !receipts;
  let report = Audit.run ~receipts:!receipts ledger in
  let coverage = Audit_log.coverage ~ledger_size:(Ledger.size ledger) in
  if prometheus then print_string (Obs.to_prometheus_text ())
  else Obs.dump Format.std_formatter;
  Printf.printf "\naudit: %s\n" (if report.Audit.ok then "ok" else "FAILED");
  Printf.printf "verification coverage: %d/%d journals (%.1f%%)\n"
    coverage.Audit_log.verified_jsns coverage.Audit_log.total_jsns
    (100. *. coverage.Audit_log.ratio);
  (match trace_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      let lines = Trace.to_json_lines () in
      output_string oc lines;
      if String.length lines > 0 then output_char oc '\n';
      close_out oc;
      Printf.printf "trace written to %s (%d spans)\n" path (Trace.span_count ()));
  Obs.disable ();
  if report.Audit.ok && coverage.Audit_log.ratio = 1.0 then 0 else 1

let stats_cmd =
  let journals =
    Arg.(value & opt int 32 & info [ "n"; "journals" ] ~doc:"Journals to append.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE" ~doc:"Write the span tree as JSON lines to $(docv).")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Instrument a sharded fleet of $(docv) shards and break \
                   verification coverage down per shard (1 = unsharded).")
  in
  let prometheus =
    Arg.(value & flag
         & info [ "prometheus" ] ~doc:"Emit metrics in Prometheus text exposition format.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run an instrumented workload; dump metrics, trace and verification coverage")
    Term.(const run_stats $ journals $ shards $ trace_out $ prometheus)

(* --- health ----------------------------------------------------------------- *)

(* Survivability walkthrough.  Kills one shard's store under a
   supervised fleet and narrates the failure model end to end: the
   supervisor quarantines the shard, appends routed to it degrade into
   typed rejections, the epoch still seals (Degraded_skip, the absent
   shard's last root carried and verifiably flagged), proofs on live
   shards keep verifying, and self-repair resyncs the shard from a
   healthy replica until the fleet is byte-identical to a never-faulted
   reference.  With --equivocate the service then signs a second root
   for a sealed epoch; the gossip mesh folds the two announcements into
   self-verifying fork evidence and condemns the client. *)
let run_health shards journals equivocate =
  let module SL = Ledger_shard.Sharded_ledger in
  let module Sup = Ledger_shard.Shard_supervisor in
  let module Gossip = Ledger_shard.Gossip in
  let module SR = Ledger_shard.Super_root in
  if shards < 2 then begin
    prerr_endline "health: need at least 2 shards (a 1-shard fleet cannot seal around an outage)";
    2
  end
  else begin
    let ok = ref true in
    let check cond fmt =
      Printf.ksprintf
        (fun msg ->
          if not cond then begin
            ok := false;
            Printf.printf "FAILED: %s\n" msg
          end)
        fmt
    in
    let config =
      {
        SL.base =
          { Ledger.default_config with name = "health-fleet"; block_size = 8;
            fam_delta = 5; crypto = Crypto_profile.default_simulated };
        shards;
      }
    in
    (* subject + never-faulted reference share the base name, so every
       name-derived key matches: the reference is both the repair source
       and the oracle the repaired fleet must be byte-identical to *)
    let make_fleet () =
      let clock = Clock.create () in
      let fleet = SL.create ~config ~clock () in
      let member, priv =
        SL.new_member fleet ~name:"health-user" ~role:Roles.Regular_user
      in
      (fleet, member, priv)
    in
    let subject, member, priv = make_fleet () in
    let reference, ref_member, ref_priv = make_fleet () in
    let clocks fleet =
      SL.fleet_clock fleet :: List.init shards (SL.shard_clock fleet)
    in
    let barrier () =
      let all = clocks subject @ clocks reference in
      let horizon =
        List.fold_left (fun acc c -> max acc (Clock.now c)) 0L all
      in
      List.iter
        (fun c ->
          let d = Int64.sub horizon (Clock.now c) in
          if d > 0L then Clock.advance c d)
        all
    in
    let scratch = Filename.temp_file "ledgerdb_health" "" in
    Sys.remove scratch;
    Sys.mkdir scratch 0o755;
    let supervisor =
      Sup.create
        ~source:(Ledger_shard.Sharded_service.handle reference)
        ~fleet:subject ~scratch_dir:scratch ()
    in
    let next = ref 0 in
    let append_wave n =
      Clock.advance_ms (SL.fleet_clock subject) 100.;
      barrier ();
      let accepted = ref 0 and rejected = ref 0 in
      let first_rejection = ref None in
      for _ = 1 to n do
        let i = !next in
        incr next;
        let payload = Bytes.of_string (Printf.sprintf "record %d" i) in
        let clues = [ "item-" ^ string_of_int (i mod 7) ] in
        ignore
          (SL.append reference ~member:ref_member ~priv:ref_priv ~clues payload);
        match Sup.append supervisor ~member ~priv ~clues payload with
        | Ok _ -> incr accepted
        | Error u ->
            incr rejected;
            if !first_rejection = None then first_rejection := Some u
      done;
      (!accepted, !rejected, !first_rejection)
    in
    let print_statuses () =
      for i = 0 to shards - 1 do
        Printf.printf "  shard %d: %-28s %d journals\n" i
          (Sup.status_to_string (Sup.status supervisor i))
          (Ledger.size (SL.shard subject i))
      done
    in
    (* 1: healthy baseline *)
    let accepted, rejected, _ = append_wave journals in
    barrier ();
    (match Sup.seal_epoch supervisor with
    | Error msg -> check false "healthy seal refused: %s" msg
    | Ok sealed ->
        check (SR.full sealed) "healthy epoch sealed degraded";
        Printf.printf "[1] healthy fleet: %d appends accepted (%d rejected), \
                       epoch %d sealed full, super-root %s\n"
          accepted rejected sealed.SR.epoch
          (Hash.short_hex (SR.commitment sealed)));
    (match SL.seal_epoch reference with
    | Ok _ -> ()
    | Error msg -> check false "reference seal refused: %s" msg);
    print_statuses ();
    (* a short wave after the checkpoint, so the dead shard's committed
       state is ahead of its last checkpoint: salvage must refuse (it
       would lose those journals) and repair has to resync from the
       replica — which also backfills what the outage rejects below *)
    let _ = append_wave (journals / 2) in
    (* 2: kill a shard's store *)
    let victim = 1 in
    Stream_store.Unsafe.kill (Ledger.backing_store (SL.shard subject victim));
    Sup.quarantine supervisor victim;
    Printf.printf "\n[2] shard %d store killed -> %s\n" victim
      (Sup.status_to_string (Sup.status supervisor victim));
    (* 3: degraded mode — typed rejections, no hang *)
    let accepted, rejected, first_rejection = append_wave journals in
    Printf.printf "\n[3] degraded appends: %d accepted, %d rejected (typed)\n"
      accepted rejected;
    (match first_rejection with
    | Some u -> Printf.printf "    e.g. %s\n" (Sup.unavailable_to_string u)
    | None -> check false "no append was routed to the dead shard");
    (* 4: the epoch still seals, the outage verifiably carried *)
    barrier ();
    (match Sup.seal_epoch supervisor with
    | Error msg -> check false "degraded seal refused: %s" msg
    | Ok sealed ->
        check (not (SR.full sealed)) "outage not reflected in the epoch";
        Printf.printf "\n[4] epoch %d sealed around the outage:\n" sealed.SR.epoch;
        Array.iteri
          (fun i presence ->
            Printf.printf "    shard %d: %s root %s\n" i
              (match presence with
              | SR.Sealed -> "sealed "
              | SR.Carried -> "carried")
              (Hash.short_hex sealed.SR.shard_roots.(i)))
          sealed.SR.presence;
        let super = SR.commitment sealed in
        let live = if victim = 0 then 1 else 0 in
        let size = sealed.SR.shard_sizes.(live) in
        (match SL.prove subject ~shard:live ~jsn:(size - 1) with
        | Error msg -> check false "prove on live shard refused: %s" msg
        | Ok proof ->
            check
              (SL.verify_proof subject ~super proof)
              "valid proof refused on live shard";
            Printf.printf
              "    proofs on live shards still verify (shard %d jsn %d ok)\n"
              live (size - 1)));
    (match SL.seal_epoch reference with
    | Ok _ -> ()
    | Error msg -> check false "reference seal refused: %s" msg);
    (* 5: self-repair *)
    let t0 = Clock.now (SL.fleet_clock subject) in
    let ticks = ref 0 in
    while Sup.status supervisor victim <> Sup.Healthy && !ticks < 10_000 do
      incr ticks;
      Clock.advance (SL.fleet_clock subject) 10_000L;
      barrier ();
      Sup.tick supervisor
    done;
    check
      (Sup.status supervisor victim = Sup.Healthy)
      "repair did not land within the tick budget";
    Printf.printf "\n[5] self-repair: shard %d resynced from the replica in \
                   %.0f ms -> %s\n"
      victim
      (Int64.to_float (Int64.sub (Clock.now (SL.fleet_clock subject)) t0)
      /. 1000.)
      (Sup.status_to_string (Sup.status supervisor victim));
    print_statuses ();
    (* 6: convergence with the never-faulted reference *)
    for i = 0 to shards - 1 do
      let s = SL.shard subject i and r = SL.shard reference i in
      check
        (Ledger.size s = Ledger.size r
        && Hash.equal (Ledger.commitment s) (Ledger.commitment r))
        "shard %d diverges from the never-faulted reference" i
    done;
    barrier ();
    (match (Sup.seal_epoch supervisor, SL.seal_epoch reference) with
    | Ok s, Ok r ->
        check (SR.full s) "post-repair epoch still degraded";
        check
          (Hash.equal (SR.commitment s) (SR.commitment r))
          "post-repair super-root diverges from the reference";
        if SR.full s && Hash.equal (SR.commitment s) (SR.commitment r) then
          Printf.printf "\n[6] converged: epoch %d full again, super-root %s \
                         byte-identical to a never-faulted run\n"
            s.SR.epoch
            (Hash.short_hex (SR.commitment s))
    | Error msg, _ | _, Error msg ->
        check false "post-repair seal refused: %s" msg);
    (* 7: non-equivocation gossip *)
    let service_pub = SL.service_public_key subject in
    let peer_a =
      Gossip.create ~name:"auditor-a" ~service_pub ~ledger:"health-fleet" ()
    in
    let peer_b =
      Gossip.create ~name:"auditor-b" ~service_pub ~ledger:"health-fleet" ()
    in
    let client =
      Ledger_client.create ~name:"health-client"
        ~lsp_pub:(Ledger.lsp_public_key (SL.shard subject 0))
    in
    (match SL.announce subject with
    | None -> check false "sealed fleet has no announcement"
    | Some ann ->
        (match Gossip.observe peer_a ann with
        | Gossip.Fresh | Gossip.Confirmed -> ()
        | _ -> check false "honest announcement not accepted");
        ignore (Gossip.observe peer_b ann);
        Printf.printf "\n[7] gossip: both auditors hold the service-signed \
                       announcement for epoch %d; client %s\n"
          ann.Gossip.epoch
          (Ledger_client.status_to_string (Ledger_client.status client)));
    if equivocate then begin
      match (SL.announce_epoch subject 0, SL.Unsafe.equivocate subject ~epoch:0) with
      | None, _ | _, None -> check false "cannot equivocate: epoch 0 not sealed"
      | Some honest, Some forged -> (
          (* one auditor saw the honest epoch-0 announcement, the other
             the forged one — comparing notes must surface the fork *)
          ignore (Gossip.observe peer_a honest);
          ignore (Gossip.observe peer_b forged);
          match Gossip.exchange peer_a peer_b with
          | None -> check false "equivocation went undetected"
          | Some ev ->
              check
                (Gossip.verify_fork ~service_pub ev)
                "fork evidence does not self-verify";
              Gossip.condemn peer_a client;
              check
                (Ledger_client.status client = Ledger_client.Compromised)
                "client not condemned by fork evidence";
              Printf.printf
                "\n[8] the service signed a second root for epoch 0:\n\
                \    %s\n\
                \    evidence verifies under the service key alone; client \
                 is now %s\n"
                (Gossip.fork_to_string ev)
                (Ledger_client.status_to_string (Ledger_client.status client)))
    end;
    Printf.printf "\nhealth walkthrough: %s\n"
      (if !ok then "ok" else "FAILED");
    if !ok then 0 else 1
  end

let health_cmd =
  let shards =
    Arg.(value & opt int 3
         & info [ "shards" ] ~docv:"N" ~doc:"Fleet width (at least 2).")
  in
  let journals =
    Arg.(value & opt int 24
         & info [ "n"; "journals" ] ~doc:"Appends per phase.")
  in
  let equivocate =
    Arg.(value & flag
         & info [ "equivocate" ]
             ~doc:"Make the service sign a second root for a sealed epoch \
                   and show the gossip mesh folding it into fork evidence.")
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:"Survivability walkthrough: quarantine, degraded sealing, \
             self-repair, fork evidence")
    Term.(const run_health $ shards $ journals $ equivocate)

(* --- query ------------------------------------------------------------------ *)

(* Build a workload whose clues exercise nested prefixes, run a
   verifiable range/prefix query through the wire envelope, and replay
   every completeness proof client-side.  The exit status is the
   verification verdict: a page (or shard answer) that fails to verify
   exits non-zero. *)
module RQ = Ledger_query.Range_query

let query_clue i =
  let names = [| "alice"; "bob"; "carol"; "dave" |] in
  match i mod 3 with
  | 0 -> "acct:" ^ names.(i mod Array.length names)
  | 1 -> "bank:" ^ string_of_int (i mod 4)
  | _ -> "audit:epoch-" ^ string_of_int (i / 16)

let print_rows rows =
  List.iter
    (fun (r : RQ.result_row) ->
      Printf.printf "  %-16s total=%-3d jsns=[%s]\n" r.RQ.r_clue r.RQ.r_total
        (String.concat ","
           (List.map (fun (jsn, _) -> string_of_int jsn) r.RQ.r_entries)))
    rows

let spec_of_options prefix lo hi =
  match (prefix, lo) with
  | Some p, _ -> RQ.Prefix p
  | None, Some lo -> RQ.Between { lo; hi }
  | None, None -> RQ.Prefix ""

let window_of_options t1 t2 =
  match (t1, t2) with
  | None, None -> None
  | _ -> Some { RQ.t1 = Option.value t1 ~default:0;
                t2 = Option.value t2 ~default:max_int }

let run_query_single journals spec window page_size real_crypto =
  let clock = Clock.create () in
  let config =
    { Ledger.default_config with name = "cli-query"; block_size = 16;
      fam_delta = 8;
      crypto =
        (if real_crypto then Crypto_profile.Real
         else Crypto_profile.default_simulated) }
  in
  let ledger = Ledger.create ~config ~clock () in
  let user, key =
    Ledger.new_member ledger ~name:"cli-user" ~role:Roles.Regular_user
  in
  for i = 0 to journals - 1 do
    Clock.advance_ms clock 100.;
    ignore
      (Ledger.append ledger ~member:user ~priv:key ~clues:[ query_clue i ]
         (Bytes.of_string (Printf.sprintf "record %d" i)))
  done;
  Ledger.seal_block ledger;
  Printf.printf "ledger built: %d journals, query root %s\n"
    (Ledger.size ledger)
    (Hash.short_hex (Ledger.query_root ledger));
  (* every page crosses the byte-level wire, cursors chain page to page *)
  let rec fetch after acc guard =
    if guard > 10_000 then Error "pagination did not terminate"
    else
      let reqb = Service.Client.make_query_page ~spec ?window ?after ~page_size () in
      match Service.Client.parse (Service.handle ledger reqb) with
      | Some (Service.Query_page_r { page; query_root; _ }) -> (
          match page.RQ.cursor with
          | Some c -> fetch (Some c) ((page, query_root) :: acc) (guard + 1)
          | None -> Ok (List.rev ((page, query_root) :: acc)))
      | Some (Service.Error_r e) -> Error e
      | Some _ -> Error "unexpected response kind"
      | None -> Error "malformed response"
  in
  match fetch None [] 0 with
  | Error e ->
      Printf.printf "query FAILED: %s\n" e;
      1
  | Ok pages ->
      let root = snd (List.hd pages) in
      if not (List.for_all (fun (_, r) -> Hash.equal r root) pages) then begin
        Printf.printf "query FAILED: index root moved mid-scan (re-run)\n";
        1
      end
      else begin
        let bytes =
          List.fold_left (fun a (pg, _) -> a + RQ.page_bytes pg) 0 pages
        in
        match RQ.verify_pages ~root ~spec ?window ~page_size (List.map fst pages) with
        | Error e ->
            Printf.printf "verification FAILED: %s\n" e;
            1
        | Ok rows ->
            Printf.printf
              "verified %d rows over %d pages (%d proof+result bytes):\n"
              (List.length rows) (List.length pages) bytes;
            print_rows rows;
            (* same question through the unified Verify API *)
            let target = Verify_api.Query_complete { spec; window; page_size } in
            let o = Verify_api.verify ledger ~level:Verify_api.Client target in
            Format.printf "verify api: %a@." Verify_api.pp_outcome o;
            if o.Verify_api.ok then 0 else 1
      end

let run_query_sharded journals spec window page_size shards real_crypto =
  let module SL = Ledger_shard.Sharded_ledger in
  let module SS = Ledger_shard.Sharded_service in
  let module SQ = Ledger_shard.Sharded_query in
  let clock = Clock.create () in
  let config =
    {
      SL.base =
        { Ledger.default_config with name = "cli-query"; block_size = 16;
          fam_delta = 8;
          crypto =
            (if real_crypto then Crypto_profile.Real
             else Crypto_profile.default_simulated) };
      shards;
    }
  in
  let fleet = SL.create ~config ~clock () in
  let user, key = SL.new_member fleet ~name:"cli-user" ~role:Roles.Regular_user in
  for i = 0 to journals - 1 do
    Clock.advance_ms clock 100.;
    ignore
      (SL.append fleet ~member:user ~priv:key ~clues:[ query_clue i ]
         (Bytes.of_string (Printf.sprintf "record %d" i)))
  done;
  match SL.seal_epoch fleet with
  | Error msg ->
      Printf.printf "epoch seal refused: %s\n" msg;
      1
  | Ok sealed -> (
      Printf.printf "fleet built: %d journals over %d shards, super-root %s\n"
        (SL.total_size fleet) shards
        (Hash.short_hex (Ledger_shard.Super_root.commitment sealed));
      let reqb = SS.Client.make_query_scatter ~spec ?window ~page_size () in
      match SS.Client.parse (SS.handle fleet reqb) with
      | Some (SS.Query_scatter_r sc) -> (
          match SQ.merge ~sealed ~shards ~spec ?window ~page_size sc with
          | Error e ->
              Printf.printf "verification FAILED: %s\n" e;
              1
          | Ok rows ->
              Printf.printf
                "verified %d rows from %d shards (%d scatter bytes, pinned \
                 to epoch %d):\n"
                (List.length rows) shards
                (Bytes.length (SQ.encode_scatter sc))
                sealed.Ledger_shard.Super_root.epoch;
              print_rows rows;
              0)
      | Some (SS.Error_r e) ->
          Printf.printf "query FAILED: %s\n" e;
          1
      | Some _ | None ->
          Printf.printf "query FAILED: unexpected response\n";
          1)

let run_query journals prefix lo hi t1 t2 page_size shards real_crypto =
  if page_size <= 0 then begin
    prerr_endline "ledgerdb query: --page-size must be positive";
    2
  end
  else
    let spec = spec_of_options prefix lo hi in
    let window = window_of_options t1 t2 in
    if shards > 1 then
      run_query_sharded journals spec window page_size shards real_crypto
    else run_query_single journals spec window page_size real_crypto

let query_cmd =
  let journals =
    Arg.(value & opt int 48 & info [ "n"; "journals" ] ~doc:"Journals to append.")
  in
  let prefix =
    Arg.(value & opt (some string) None
         & info [ "prefix" ] ~docv:"P"
             ~doc:"Scan every clue starting with $(docv) (e.g. acct:).")
  in
  let lo =
    Arg.(value & opt (some string) None
         & info [ "range" ] ~docv:"LO"
             ~doc:"Scan clues from $(docv) (inclusive); pair with --range-hi.")
  in
  let hi =
    Arg.(value & opt (some string) None
         & info [ "range-hi" ] ~docv:"HI"
             ~doc:"Upper bound (exclusive) for --range; absent = unbounded.")
  in
  let t1 =
    Arg.(value & opt (some int) None
         & info [ "t1" ] ~docv:"JSN" ~doc:"Window: keep entries with jsn >= $(docv).")
  in
  let t2 =
    Arg.(value & opt (some int) None
         & info [ "t2" ] ~docv:"JSN" ~doc:"Window: keep entries with jsn <= $(docv).")
  in
  let page_size =
    Arg.(value & opt int 4
         & info [ "page-size" ] ~docv:"N"
             ~doc:"Clues per page; pages chain by cursor and each carries \
                   its own completeness proof.")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Scatter the query over $(docv) shards and merge the \
                   verified answers under the epoch super-root.")
  in
  let real =
    Arg.(value & flag
         & info [ "real-crypto" ] ~doc:"Use real ECDSA instead of the simulated profile.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Verifiable range/prefix queries: completeness proofs, \
             verifiable pagination, windowed filtering")
    Term.(const run_query $ journals $ prefix $ lo $ hi $ t1 $ t2 $ page_size
          $ shards $ real)

(* --- serve ----------------------------------------------------------------- *)

(* Serve the wire protocol on a real socket.  Members c0..c<N-1> are
   pre-registered with name-derived keys, so a load generator (or any
   client knowing the ledger name) can reconstruct its credentials
   without any out-of-band exchange. *)
let run_serve host port workers name members seed_entries shards real_crypto
    duration =
  let module Obs = Ledger_obs.Obs in
  let clock = Clock.create () in
  Obs.reset ();
  Obs.enable ();
  let crypto =
    if real_crypto then Crypto_profile.Real
    else Crypto_profile.default_simulated
  in
  let backend, read, describe =
    if shards > 1 then begin
      let module SL = Ledger_shard.Sharded_ledger in
      let config =
        { SL.base = { Ledger.default_config with name; crypto }; shards }
      in
      let fleet = SL.create ~config ~clock () in
      for i = 0 to members - 1 do
        ignore
          (SL.new_member fleet
             ~name:(Printf.sprintf "c%d" i)
             ~role:Roles.Regular_user)
      done;
      let m, k = SL.new_member fleet ~name:"seeder" ~role:Roles.Regular_user in
      for i = 0 to seed_entries - 1 do
        ignore
          (SL.append fleet ~member:m ~priv:k
             ~clues:[ "seed-" ^ string_of_int (i mod 4) ]
             (Bytes.of_string (Printf.sprintf "seed %d" i)))
      done;
      if seed_entries > 0 then
        (match SL.seal_epoch fleet with Ok _ -> () | Error _ -> ());
      ( Ledger_shard.Sharded_service.handle fleet,
        Ledger_shard.Sharded_service.handle_read fleet,
        fun () ->
          Printf.sprintf "sharded fleet '%s' (%d shards, %d journals)" name
            shards (SL.total_size fleet) )
    end
    else begin
      let config = { Ledger.default_config with name; crypto } in
      let ledger = Ledger.create ~config ~clock () in
      for i = 0 to members - 1 do
        ignore
          (Ledger.new_member ledger
             ~name:(Printf.sprintf "c%d" i)
             ~role:Roles.Regular_user)
      done;
      let m, k =
        Ledger.new_member ledger ~name:"seeder" ~role:Roles.Regular_user
      in
      for i = 0 to seed_entries - 1 do
        Clock.advance_ms clock 5.;
        ignore
          (Ledger.append ledger ~member:m ~priv:k
             ~clues:[ "seed-" ^ string_of_int (i mod 4) ]
             (Bytes.of_string (Printf.sprintf "seed %d" i)))
      done;
      ( Service.handle ledger,
        Service.handle_read ledger,
        fun () ->
          Printf.sprintf "ledger '%s' (%d journals)" name (Ledger.size ledger)
      )
    end
  in
  let server =
    Net_server.create
      ~config:{ Net_server.default_config with host; port; workers }
      ~read backend
  in
  Net_server.install_signal_handlers server;
  Printf.printf
    "serving %s on %s:%d — %d worker domains, %d derivable members\n\
     (profile: %s; stop with SIGINT/SIGTERM%s)\n\
     %!"
    (describe ()) host (Net_server.port server) workers members
    (if real_crypto then "real ECDSA" else "simulated")
    (match duration with
    | Some d -> Printf.sprintf ", or automatically after %.0fs" d
    | None -> "");
  (match duration with
  | Some d ->
      Unix.sleepf d;
      Net_server.stop server
  | None ->
      while Net_server.running server do
        Unix.sleepf 0.25
      done);
  (* the signal handler may have initiated the stop; finish the drain *)
  Net_server.stop server;
  let s = Net_server.stats server in
  Printf.printf
    "drained: served %s, %d connections accepted (%d refused), %d framing \
     errors\n"
    (describe ()) s.Net_server.accepted s.Net_server.refused
    s.Net_server.framing_errors;
  Obs.disable ();
  0

let serve_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Bind address.")
  in
  let port =
    Arg.(value & opt int 7878
         & info [ "port" ] ~doc:"TCP port (0 picks an ephemeral one).")
  in
  let workers =
    Arg.(value & opt int 4
         & info [ "workers" ] ~docv:"N" ~doc:"Accept/serve domains.")
  in
  let lname =
    Arg.(value & opt string "served"
         & info [ "name" ]
             ~doc:"Ledger name; member and LSP keys derive from it, so a \
                   load generator needs nothing else to reconstruct \
                   credentials.")
  in
  let members =
    Arg.(value & opt int 64
         & info [ "members" ] ~docv:"N"
             ~doc:"Pre-registered members c0..c$(docv)-1 with name-derived \
                   keys.")
  in
  let seed_entries =
    Arg.(value & opt int 8
         & info [ "seed" ] ~docv:"N" ~doc:"Journals appended before serving.")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Serve a sharded fleet of $(docv) shards (speaks the \
                   Sharded_service protocol; 1 = plain Service).")
  in
  let real =
    Arg.(value & flag
         & info [ "real-crypto" ]
             ~doc:"Use real ECDSA instead of the simulated profile.  Load \
                   clients must match.")
  in
  let duration =
    Arg.(value & opt (some float) None
         & info [ "duration" ] ~docv:"SECONDS"
             ~doc:"Stop automatically after $(docv) seconds (for scripted \
                   runs); default: serve until SIGINT/SIGTERM.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve the ledger wire protocol on a real TCP socket")
    Term.(const run_serve $ host $ port $ workers $ lname $ members
          $ seed_entries $ shards $ real $ duration)

(* --- load ------------------------------------------------------------------ *)

let run_load host port clients connections ops rate payload clues zipf
    append_w verify_w lineage_w read_ratio pulls seed real_crypto =
  let cfg =
    {
      Load_gen.default_config with
      host;
      port;
      logical_clients = clients;
      connections;
      total_ops = ops;
      rate_per_s = rate;
      payload_size = payload;
      clue_count = clues;
      zipf_s = zipf;
      mix = { Load_gen.append_w; verify_w; lineage_w };
      read_ratio;
      pulls;
      seed;
      crypto =
        (if real_crypto then Crypto_profile.Real
         else Crypto_profile.default_simulated);
    }
  in
  match Load_gen.run cfg with
  | exception Failure msg ->
      Printf.eprintf "load: %s\n" msg;
      2
  | r ->
      Format.printf "%a@." Load_gen.pp_result r;
      if r.Load_gen.verify_failures = 0 && r.Load_gen.pulls_failed = 0 then 0
      else 1

let load_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Server address.")
  in
  let port =
    Arg.(value & opt int 7878 & info [ "port" ] ~doc:"Server TCP port.")
  in
  let clients =
    Arg.(value & opt int 10_000
         & info [ "clients" ] ~docv:"N"
             ~doc:"Logical verifying clients multiplexed over the \
                   connection pool.")
  in
  let connections =
    Arg.(value & opt int 8
         & info [ "connections" ] ~docv:"N"
             ~doc:"Socket connections = driver threads.")
  in
  let ops =
    Arg.(value & opt int 4_000
         & info [ "ops" ] ~docv:"N" ~doc:"Total request-level operations.")
  in
  let rate =
    Arg.(value & opt (some float) None
         & info [ "rate" ] ~docv:"OPS_PER_S"
             ~doc:"Open-loop arrival rate; omit for closed-loop.")
  in
  let payload =
    Arg.(value & opt int 64
         & info [ "payload" ] ~docv:"BYTES" ~doc:"Append payload size.")
  in
  let clues =
    Arg.(value & opt int 128
         & info [ "clues" ] ~docv:"N" ~doc:"Shared-clue population.")
  in
  let zipf =
    Arg.(value & opt float 1.1
         & info [ "zipf" ] ~docv:"S"
             ~doc:"Zipf skew exponent over the shared clues (0 = uniform).")
  in
  let append_w =
    Arg.(value & opt int 3 & info [ "append-weight" ] ~doc:"Append mix weight.")
  in
  let verify_w =
    Arg.(value & opt int 2 & info [ "verify-weight" ] ~doc:"Verify mix weight.")
  in
  let lineage_w =
    Arg.(value & opt int 1
         & info [ "lineage-weight" ] ~doc:"Lineage mix weight.")
  in
  let read_ratio =
    Arg.(value & opt (some float) None
         & info [ "read-ratio" ] ~docv:"R"
             ~doc:"Fraction of ops drawn as reads (verify/lineage), \
                   overriding the mix weights' proportions — e.g. 0.95 for \
                   a read-heavy 95/5 workload.  Omit to use the mix as-is.")
  in
  let pulls =
    Arg.(value & opt int 1
         & info [ "pulls" ] ~docv:"N"
             ~doc:"Full replica pulls run concurrently with the op traffic.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic run seed.")
  in
  let real =
    Arg.(value & flag
         & info [ "real-crypto" ]
             ~doc:"Sign and check under real ECDSA (must match the server).")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Drive a serving endpoint with mixed verifying load")
    Term.(const run_load $ host $ port $ clients $ connections $ ops $ rate
          $ payload $ clues $ zipf $ append_w $ verify_w $ lineage_w
          $ read_ratio $ pulls $ seed $ real)

let main =
  Cmd.group
    (Cmd.info "ledgerdb_cli" ~version:"1.0.0"
       ~doc:"LedgerDB ubiquitous-verification reproduction CLI")
    [ demo_cmd; attack_cmd; systems_cmd; snapshot_cmd; stats_cmd; health_cmd;
      query_cmd; serve_cmd; load_cmd ]

let () =
  (* -v / --verbosity via LEDGERDB_VERBOSE; cmdliner subcommands keep their
     own argument vectors simple *)
  (match Sys.getenv_opt "LEDGERDB_VERBOSE" with
  | Some ("debug" | "1") -> Logs.set_level (Some Logs.Debug)
  | Some "info" -> Logs.set_level (Some Logs.Info)
  | Some _ | None -> Logs.set_level (Some Logs.Warning));
  Logs.set_reporter (Logs.format_reporter ());
  exit (Cmd.eval' main)
