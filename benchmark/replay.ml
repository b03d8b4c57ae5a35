(* [replay] mode: rebuild the served ledger from the recorded frames in a
   single domain with no sockets, and time the public calls each layer
   exposes — [Service] as a whole, its decoder, the [Ledger] or
   [Ledger.Read_view] call behind it, [Crypto_profile], and the client
   verifiers — on the same data the server saw. *)

open Ledger_crypto
open Ledger_core
open Ledger_merkle
open Ledger_cmtree
module RQ = Ledger_query.Range_query
module RV = Ledger.Read_view
module Rng = Ledger_bench_util.Det_rng
module Obs = Ledger_obs.Obs
module Metrics = Ledger_obs.Metrics

let time_us f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1e6)

(* mean µs of [f] over [xs] *)
let mean_us xs f =
  let s = Stats.series () in
  List.iter (fun x -> Stats.add s (snd (time_us (fun () -> f x)))) xs;
  Stats.mean s

(* µs per call of a call too short to time one at a time *)
let per_call_us n f =
  let t0 = Unix.gettimeofday () in
  for i = 1 to n do
    f i
  done;
  (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int n

(* What [Net_server.dispatch] records per lock-free read when
   observability is on: three counters, one under a name built with
   [sprintf], a latency and two size histograms. *)
let read_obs i =
  Metrics.incr "net_read_dispatch_total";
  Metrics.incr (Printf.sprintf "net_read_dispatch_domain_%d" (i land 1));
  Metrics.incr "net_requests_total";
  Metrics.observe "net_request_us" 12.5;
  Metrics.observe_int "net_request_bytes" 40;
  Metrics.observe_int "net_response_bytes" 1024

(* One [write] of a 1 KiB frame on a loopback TCP connection set up as
   the server sets up its connections; the peer drains off the clock. *)
let write_1k_us () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 1;
  let client = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect client (Unix.getsockname listener);
  let server, _ = Unix.accept listener in
  Unix.setsockopt server Unix.TCP_NODELAY true;
  let frame = Bytes.make 1024 'x' and sink = Bytes.create 65536 in
  let total = ref 0. in
  for _ = 1 to 40 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 25 do
      ignore (Unix.write server frame 0 1024)
    done;
    total := !total +. (Unix.gettimeofday () -. t0);
    let left = ref (25 * 1024) in
    while !left > 0 do
      left := !left - Unix.read client sink 0 (min 65536 !left)
    done
  done;
  List.iter Unix.close [ server; client; listener ];
  !total *. 1e6 /. 1000.

(* Workload mutations replayed are capped by time: the notarize ledger
   alone holds minutes of single-domain appends. *)
let mutation_budget_s = 3.
let read_budget_s = 2.

let replay ~name ~frames_path ~preload_frames ~primary_tag =
  Obs.reset ();
  Obs.enable ();
  let ledger = Server.make_ledger ~name in
  let frames = Server.read_frames frames_path in
  let muts = List.filter_map (fun (c, b) -> if c = 0 then Some b else None) frames in
  let reads = List.filter_map (fun (c, b) -> if c = 1 then Some b else None) frames in
  let tag b = if Bytes.length b > 0 then Bytes.get_uint8 b 0 else -1 in
  let clues = ref [] in
  (* primary-kind samples: whole handler, decoder, the layer call behind
     it and the encoding of its answer *)
  let whole = Stats.series () and decode = Stats.series () and encode = Stats.series () in
  let entry_us = ref 0. and entries = ref 0 in
  let publishes () = Metrics.counter_value "ledger_view_published_total" in
  let published = ref 0 and appended = ref 0 in
  let deadline = ref infinity in
  List.iteri
    (fun k req ->
      let parsed = Service.decode_request req in
      if k < preload_frames then begin
        (match parsed with
        | Some (Service.Append_batch { entries; _ }) ->
            List.iter (fun (_, cs, _, _, _) -> clues := cs @ !clues) entries
        | _ -> ());
        ignore (Service.handle ledger req);
        if k = preload_frames - 1 then
          deadline := Unix.gettimeofday () +. mutation_budget_s
      end
      else if Unix.gettimeofday () < !deadline then begin
        let primary = tag req = primary_tag in
        let p0 = publishes () and s0 = Ledger.size ledger in
        (* a frame is committed once: even frames through [Service.handle]
           as a whole, odd ones piece by piece *)
        if k mod 2 = 0 then begin
          let _, t = time_us (fun () -> Service.handle ledger req) in
          if primary then Stats.add whole t
        end
        else begin
          let parsed, td = time_us (fun () -> Service.decode_request req) in
          let (n, resp), tl =
            time_us (fun () ->
                match parsed with
                | Some (Service.Append { member_id; payload; clues; client_ts; nonce; signature })
                  ->
                    ( 1,
                      match
                        Ledger.append_signed ledger ~member_id ~payload ~clues ~client_ts
                          ~nonce ~signature
                      with
                      | Ok r -> Service.Receipt_r r
                      | Error e -> Service.Error_r e )
                | Some (Service.Append_batch { member_id; entries }) -> (
                    ( List.length entries,
                      match Ledger.append_signed_batch ledger ~member_id entries with
                      | Ok rs -> Service.Receipts_r rs
                      | Error e -> Service.Error_r e ))
                | _ -> (0, Service.Error_r "not a mutation"))
          in
          let _, te = time_us (fun () -> Service.encode_response resp) in
          entry_us := !entry_us +. tl;
          entries := !entries + n;
          if primary then begin
            Stats.add decode td;
            Stats.add encode te
          end
        end;
        published := !published + (publishes () - p0);
        appended := !appended + (Ledger.size ledger - s0)
      end)
    muts;
  let v = Ledger.read_view ledger in
  let read_deadline = Unix.gettimeofday () +. read_budget_s in
  List.iter
    (fun req ->
      if tag req = primary_tag && Unix.gettimeofday () < read_deadline then
        match Service.decode_request req with
        | Some (Service.Query_page { pin = Some _; _ }) -> ()
        | parsed -> (
            let _, tw = time_us (fun () -> Service.handle_read ledger req) in
            let _, td = time_us (fun () -> Service.decode_request req) in
            (* the view call, and the answer [Service] builds from it *)
            let call =
              match parsed with
              | Some (Service.Get_proof_bundle { jsn }) when jsn < RV.size v ->
                  Some
                    (fun () ->
                      Service.Proof_bundle_r
                        { proof = RV.get_proof v jsn; commitment = RV.commitment v;
                          size = RV.size v })
              | Some (Service.Get_clue_bundle { clue; first; last }) ->
                  Some
                    (fun () ->
                      Service.Clue_bundle_r
                        { proof = RV.prove_clue v ~clue ?first ?last (); clue_root = RV.clue_root v })
              | Some (Service.Query_page { spec; window; after; page_size; _ }) ->
                  Some
                    (fun () ->
                      Service.Query_page_r
                        { page = RQ.page (RV.query_index v) ~spec ?window ?after ~page_size ();
                          query_root = RV.query_root v; commitment = RV.commitment v;
                          size = RV.size v; epoch = RV.epoch v })
              | _ -> None
            in
            match call with
            | None -> ()
            | Some f ->
                let resp = f () in
                Stats.add whole tw;
                Stats.add decode td;
                Stats.add encode (snd (time_us (fun () -> Service.encode_response resp)))))
    reads;
  (* layer costs on the final snapshot, over seeded samples *)
  let rng = Rng.create ~seed:7 in
  let size = RV.size v in
  let jsns = List.init 300 (fun _ -> Rng.int rng size) in
  let few = List.filteri (fun i _ -> i < 40) jsns in
  let clue_pool = Array.of_list (List.sort_uniq String.compare !clues) in
  let sample_clues = List.init 100 (fun _ -> Rng.pick rng clue_pool) in
  let commitment = RV.commitment v in
  let proofs = List.map (fun j -> (j, RV.get_proof v j)) jsns in
  let known clue =
    List.mapi (fun i j -> (i, Ledger.tx_hash_of ledger j)) (Ledger.clue_jsns ledger clue)
  in
  let clue_proofs =
    List.filter_map
      (fun c -> Option.map (fun p -> (p, known c)) (RV.prove_clue v ~clue:c ()))
      sample_clues
  in
  let receipts = List.map (RV.receipt v) few in
  let digest (r : Receipt.t) =
    Receipt.signing_digest ~jsn:r.Receipt.jsn ~request_hash:r.Receipt.request_hash
      ~tx_hash:r.Receipt.tx_hash ~block_hash:r.Receipt.block_hash
      ~timestamp:r.Receipt.timestamp
  in
  let lsp_priv, lsp_pub = Ecdsa.generate ~seed:("lsp:" ^ name) in
  let spec = RQ.Prefix "" in
  let page = RQ.page (RV.query_index v) ~spec ~page_size:Spec.page_size () in
  let member_wire () =
    Roles.members (Ledger.registry ledger)
    |> List.sort (fun (a : Roles.member) (b : Roles.member) ->
           String.compare a.Roles.name b.Roles.name)
    |> List.map (fun (m : Roles.member) ->
           (m.Roles.name, Roles.role_to_string m.Roles.role,
            Ecdsa.public_key_to_bytes m.Roles.pub))
  in
  let bytes_of resp = float_of_int (Bytes.length (Service.encode_response resp)) in
  let mean f l =
    List.fold_left (fun acc x -> acc +. f x) 0. l /. float_of_int (max 1 (List.length l))
  in
  let block_us h = per_call_us 2000 (fun _ -> ignore (Sys.opaque_identity (RV.block v h))) in
  let stat k x = Printf.printf "%s %.17g\n" k x in
  stat "service.replay_us" (Stats.mean whole);
  stat "service.decode_us" (Stats.mean decode);
  stat "service.encode_us" (Stats.mean encode);
  stat "obs.publishes_per_journal" (float_of_int !published /. float_of_int (max 1 !appended));
  stat "ledger.append_us_per_entry" (!entry_us /. float_of_int (max 1 !entries));
  stat "ledger.member_wire_us" (mean_us (List.init 20 Fun.id) (fun _ -> member_wire ()));
  stat "crypto.verify_us"
    (mean_us receipts (fun r ->
         if not (Crypto_profile.check Crypto_profile.Real ~pub:lsp_pub (digest r) r.Receipt.lsp_sig)
         then failwith "replay: receipt does not verify"));
  stat "crypto.sign_us"
    (mean_us receipts (fun r ->
         Crypto_profile.sign_pure Crypto_profile.Real ~priv:lsp_priv ~pub:lsp_pub (digest r)));
  stat "read_view.get_proof_us" (mean_us jsns (RV.get_proof v));
  stat "read_view.prove_clue_us" (mean_us sample_clues (fun c -> RV.prove_clue v ~clue:c ()));
  stat "read_view.receipt_us" (mean_us few (RV.receipt v));
  stat "read_view.block_first_us" (block_us 0);
  stat "read_view.block_top_us" (block_us (RV.block_count v - 1));
  stat "query.page_us"
    (mean_us (List.init 20 Fun.id) (fun _ ->
         RQ.page (RV.query_index v) ~spec ~page_size:Spec.page_size ()));
  stat "query.page_bytes" (float_of_int (RQ.page_bytes page));
  stat "range_query.verify_page_us"
    (mean_us (List.init 20 Fun.id) (fun _ ->
         match RQ.verify_page ~root:(RV.query_root v) ~spec ~page_size:Spec.page_size page with
         | Ok _ -> ()
         | Error e -> failwith ("replay: page does not verify: " ^ e)));
  stat "fam.verify_us"
    (mean_us proofs (fun (j, p) ->
         if not (Fam.verify ~commitment ~leaf:(RV.tx_hash_of v j) p) then
           failwith "replay: proof does not verify"));
  stat "fam.proof_bytes"
    (mean
       (fun (_, proof) -> bytes_of (Service.Proof_bundle_r { proof; commitment; size }))
       proofs);
  stat "cm_tree.verify_clue_us"
    (mean_us clue_proofs (fun (p, known) ->
         if not (Cm_tree.verify_clue ~root:(RV.clue_root v) ~known p) then
           failwith "replay: lineage does not verify"));
  stat "cm_tree.proof_bytes"
    (mean
       (fun (p, _) ->
         bytes_of (Service.Clue_bundle_r { proof = Some p; clue_root = RV.clue_root v }))
       clue_proofs);
  stat "net.read_obs_us" (per_call_us 5000 read_obs);
  stat "net.read_obs_sprintf_us"
    (per_call_us 5000 (fun i ->
         ignore (Sys.opaque_identity (Printf.sprintf "net_read_dispatch_domain_%d" (i land 1)))));
  stat "net.write_1k_us" (write_1k_us ());
  stat "storage.digests_per_journal"
    (float_of_int (Ledger.stored_digests ledger) /. float_of_int (max 1 (Ledger.size ledger)));
  Obs.disable ();
  flush stdout
