open Ledger_storage
open Ledger_bench_util

type config = {
  drop_prob : float;
  dup_prob : float;
  garble_prob : float;
  reorder_prob : float;
  delay_prob : float;
  delay_ms : float;
}

let lossy ?(drop = 0.05) ?(dup = 0.01) ?(garble = 0.01) ?(reorder = 0.01)
    ?(delay = 0.05) ?(delay_ms = 400.) () =
  { drop_prob = drop; dup_prob = dup; garble_prob = garble;
    reorder_prob = reorder; delay_prob = delay; delay_ms }

type stats = {
  mutable calls : int;
  mutable drops : int;
  mutable dups : int;
  mutable garbles : int;
  mutable reorders : int;
  mutable delays : int;
}

let stats_to_string s =
  Printf.sprintf
    "calls=%d drops=%d dups=%d garbles=%d reorders=%d delays=%d" s.calls
    s.drops s.dups s.garbles s.reorders s.delays

type t = {
  rng : Det_rng.t;
  config : config;
  clock : Clock.t;
  latency : Latency_model.t option;
  inner : Ledger_core.Transport.t;
  stats : stats;
  mutable held : bytes option;  (* response in flight, for reordering *)
  mutable partitioned : bool;
}

let create ~rng ~config ?latency ~clock inner =
  { rng; config; clock; latency; inner;
    stats =
      { calls = 0; drops = 0; dups = 0; garbles = 0; reorders = 0; delays = 0 };
    held = None; partitioned = false }

let stats t = t.stats
let set_partitioned t on = t.partitioned <- on

(* A jitter source over the same seeded RNG that drives the fault
   schedule — hand it to Transport.request's [backoff_rng] so one seed
   replays faults and retry timing together. *)
let backoff_rng t () = float_of_int (Det_rng.int t.rng 1_000_000) /. 1e6

let hit rng prob =
  prob > 0. && Det_rng.int rng 1_000_000 < int_of_float (prob *. 1e6)

let garble rng resp =
  let b = Bytes.copy resp in
  if Bytes.length b > 0 then begin
    let flips = 1 + Det_rng.int rng 3 in
    for _ = 1 to flips do
      let off = Det_rng.int rng (Bytes.length b) in
      let mask = 1 lsl Det_rng.int rng 8 in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor mask))
    done
  end;
  b

let transport t req =
  t.stats.calls <- t.stats.calls + 1;
  Ledger_obs.Metrics.incr "faulty_transport_calls_total";
  (* a hard partition loses every message without consuming any of the
     probabilistic fate draws, so healing resumes the seeded schedule
     exactly where it left off *)
  if t.partitioned then begin
    t.stats.drops <- t.stats.drops + 1;
    Ledger_obs.Metrics.incr "faulty_transport_drops_total";
    raise (Ledger_core.Transport.Timeout "network partitioned")
  end;
  (* draw the whole fate of this exchange up front so the schedule depends
     only on the seed and the call sequence, not on short-circuiting *)
  let dropped = hit t.rng t.config.drop_prob in
  let duplicated = hit t.rng t.config.dup_prob in
  let delayed = hit t.rng t.config.delay_prob in
  let garbled = hit t.rng t.config.garble_prob in
  let reordered = hit t.rng t.config.reorder_prob in
  let delay_scale = 0.5 +. (float_of_int (Det_rng.int t.rng 1000) /. 1000.) in
  (match t.latency with
  | Some model -> Latency_model.charge_net model t.clock
  | None -> ());
  if delayed then begin
    t.stats.delays <- t.stats.delays + 1;
    Ledger_obs.Metrics.incr "faulty_transport_delays_total";
    Clock.advance_ms t.clock (t.config.delay_ms *. delay_scale)
  end;
  if dropped then begin
    t.stats.drops <- t.stats.drops + 1;
    Ledger_obs.Metrics.incr "faulty_transport_drops_total";
    raise (Ledger_core.Transport.Timeout "message lost in transit")
  end;
  (* a duplicated request reaches the service twice: the second delivery
     exercises idempotency/nonce handling; the caller sees one response *)
  if duplicated then begin
    t.stats.dups <- t.stats.dups + 1;
    Ledger_obs.Metrics.incr "faulty_transport_dups_total";
    ignore (t.inner req)
  end;
  let resp = t.inner req in
  let resp =
    if garbled then begin
      t.stats.garbles <- t.stats.garbles + 1;
      Ledger_obs.Metrics.incr "faulty_transport_garbles_total";
      garble t.rng resp
    end
    else resp
  in
  if reordered then begin
    t.stats.reorders <- t.stats.reorders + 1;
    Ledger_obs.Metrics.incr "faulty_transport_reorders_total";
    match t.held with
    | Some stale ->
        t.held <- Some resp;
        stale
    | None ->
        t.held <- Some resp;
        resp
  end
  else resp
