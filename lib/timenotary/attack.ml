open Ledger_crypto
open Ledger_storage

type outcome = {
  protocol : string;
  attempted_delay_s : float;
  window_s : float;
  bounded : bool;
}

let s_of_us us = Int64.to_float us /. 1_000_000.

let one_way_amplification ~delay_s =
  let clock = Clock.create () in
  let peg = Pegging.One_way.create ~clock in
  let created = Clock.now clock in
  let ticket = Pegging.One_way.enqueue peg (Hash.digest_string "victim journal") in
  (* The LSP simply sits on the queue: nothing in the protocol objects. *)
  Clock.advance_sec clock delay_s;
  (match Pegging.One_way.anchor_next peg with
  | Some (t, _) -> assert (t = ticket)
  | None -> assert false);
  let anchored =
    match Pegging.One_way.anchored_time peg ticket with
    | Some ts -> ts
    | None -> assert false
  in
  {
    protocol = "one-way (ProvenDB-style)";
    attempted_delay_s = delay_s;
    window_s = s_of_us (Int64.sub anchored created);
    bounded = false;
  }

let two_way_window ~delta_tau_s ~attempted_delay_s =
  let clock = Clock.create () in
  let tsa = Tsa.pool [ Tsa.create ~endorse_rtt_ms:0. ~clock "t0" ] in
  let tl =
    T_ledger.create
      ~tau_delta_ms:(delta_tau_s *. 1000.)
      ~anchor_interval_ms:(delta_tau_s *. 1000.)
      ~clock ~tsa ()
  in
  ignore (T_ledger.force_anchor tl);
  (* τ₂: the journal is created just after the anchor — the adversary's
     best starting position. *)
  Clock.advance_ms clock 1.;
  let tau2 = Clock.now clock in
  let digest = Hash.digest_string "adversary journal" in
  let ledger_id = Hash.digest_string "adversary ledger" in
  (* Stall the submission as long as Protocol 4 tolerates. *)
  let max_stall_us = Int64.sub (T_ledger.tau_delta_us tl) 1_000L in
  let wanted_us = Int64.of_float (attempted_delay_s *. 1_000_000.) in
  let stall = if Int64.compare wanted_us max_stall_us < 0 then wanted_us else max_stall_us in
  Clock.advance clock (Int64.max 0L stall);
  let entry =
    match T_ledger.submit tl ~ledger_id ~digest ~client_ts:tau2 with
    | Ok e -> e
    | Error (T_ledger.Stale_submission _) ->
        (* Cannot happen with the stall capped below τ_Δ. *)
        assert false
  in
  (* The journal stays malleable until a TSA anchor seals it; step the
     clock until the periodic finalization fires.  An anchor is due
     every Δτ, so one that has not verified after 8 of them never will
     (the TSA's signatures are being rejected): fail rather than spin. *)
  let sealed = ref None and steps = ref 0 in
  while !sealed = None do
    incr steps;
    if !steps > 64 then failwith "Attack.two_way_window: no verified TSA anchor";
    Clock.advance_ms clock (delta_tau_s *. 1000. /. 8.);
    T_ledger.tick tl;
    match
      T_ledger.anchors_between tl (entry.T_ledger.index + 1)
        (T_ledger.entry_count tl - 1)
    with
    | token :: _ -> sealed := Some token.Tsa.timestamp
    | [] -> ()
  done;
  let sealed_ts = Option.get !sealed in
  let window_s = s_of_us (Int64.sub sealed_ts tau2) in
  {
    protocol = "two-way (T-Ledger)";
    attempted_delay_s;
    window_s;
    bounded = window_s <= (2. *. delta_tau_s) +. 0.01;
  }

let sweep ~delta_tau_s ~delays_s =
  List.concat_map
    (fun d ->
      [
        one_way_amplification ~delay_s:d;
        two_way_window ~delta_tau_s ~attempted_delay_s:d;
      ])
    delays_s
