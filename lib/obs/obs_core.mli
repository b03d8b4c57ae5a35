(** Shared observability state (internal to [ledger_obs], except that
    [Json_out] shares {!escape}).

    Instrumented code must only ever read {!enabled}; everything else is
    plumbing for {!Obs}, {!Metrics}, {!Trace} and {!Audit_log}. *)

val enabled : bool ref
(** The process-wide recording switch.  [false] (the default no-op sink)
    turns every hook into a bool read. *)

val time_source : (unit -> int64) ref
(** Simulated-microsecond source; set by {!Obs.enable}. *)

val now : unit -> int64
(** Current simulated time per {!time_source} (0 when never set). *)

val seq : int Atomic.t
val next_seq : unit -> int
(** Monotone event sequence shared by spans and audit entries.  Atomic,
    so pooled tasks recording audit entries keep unique sequence
    numbers. *)

val locked : (unit -> 'a) -> 'a
(** Run under the shared registry lock.  Guards every mutable registry
    (metrics, audit log) against concurrent pooled tasks; the disabled
    fast path never takes it. *)

val on_main_domain : unit -> bool
(** Whether the caller runs on the domain that initialised observability.
    Spans are only recorded there — the parent stack is single-domain by
    construction. *)

val escape : string -> string
(** JSON string-body escaping for the line exporters and
    [Ledger_bench_util.Json_out]. *)
