(** Deterministic lossy transport.

    Wraps a {!Ledger_core.Transport.t} byte channel and misbehaves with
    configurable probabilities: drops (raising
    {!Ledger_core.Transport.Timeout}), duplicate deliveries of the
    request, response bit-garbling, response reordering (a stale response
    is handed back while the fresh one is held), and delays charged
    against the simulated {!Ledger_storage.Clock}.  All randomness comes
    from the caller's {!Ledger_bench_util.Det_rng}, so a (seed, call
    sequence) pair replays the same fault schedule exactly. *)

type config = {
  drop_prob : float;
  dup_prob : float;
  garble_prob : float;
  reorder_prob : float;
  delay_prob : float;
  delay_ms : float;  (** mean delay; each hit is scaled by 0.5–1.5x *)
}

val lossy :
  ?drop:float ->
  ?dup:float ->
  ?garble:float ->
  ?reorder:float ->
  ?delay:float ->
  ?delay_ms:float ->
  unit ->
  config
(** A moderately hostile network: 5% drops, 1% dups, 1% garbles,
    1% reorders, 5% delays of ~400ms by default. *)

type stats = {
  mutable calls : int;
  mutable drops : int;
  mutable dups : int;
  mutable garbles : int;
  mutable reorders : int;
  mutable delays : int;
}

val stats_to_string : stats -> string

type t

val create :
  rng:Ledger_bench_util.Det_rng.t ->
  config:config ->
  ?latency:Ledger_storage.Latency_model.t ->
  clock:Ledger_storage.Clock.t ->
  Ledger_core.Transport.t ->
  t

val stats : t -> stats

val set_partitioned : t -> bool -> unit
(** Hard partition switch: while on, every call raises
    {!Ledger_core.Transport.Timeout} without consuming any probabilistic
    fate draws — healing resumes the seeded fault schedule exactly where
    it left off.  The chaos orchestrator's partition primitive. *)

val backoff_rng : t -> unit -> float
(** A jitter draw in [0,1) over the {e same} seeded RNG that drives the
    fault schedule — pass as [backoff_rng] to
    {!Ledger_core.Transport.request} so one seed replays faults and
    retry timing together. *)

val transport : t -> Ledger_core.Transport.t
(** The faulty channel. Each call draws its full fate (drop, dup, delay,
    garble, reorder) from the rng up front, charges [latency] and any
    delay to the clock, then forwards to the wrapped transport. *)
