(** Self-healing request layer over the byte-level {!Service} channel.

    The paper's client-side verification assumes nothing about the
    transport: an LSP response may be lost, duplicated, delayed past
    usefulness, or garbled in flight.  This module turns a raw
    [bytes -> bytes] channel into a request function with retry,
    exponential backoff with deterministic jitter, and per-request
    timeouts — all charged against the simulated {!Ledger_storage.Clock},
    so fault schedules replay exactly.

    The one non-negotiable rule: only {e transient transport} faults are
    retried.  A definitive service refusal ([Error_r]) is surfaced
    immediately, and cryptographic verification failures never reach this
    layer at all — they are decided above it and must never be retried
    into acceptance. *)

open Ledger_storage

type t = bytes -> bytes
(** A synchronous byte channel: {!Service.handle} applied to a remote
    ledger, a socket, or a {!Faulty_transport} wrapper. *)

exception Timeout of string
(** Raised by a transport when a request or response is lost.  Treated as
    a transient fault by {!request}. *)

type policy = {
  max_attempts : int;  (** total tries, first included *)
  base_backoff_ms : float;  (** backoff before the second try *)
  max_backoff_ms : float;  (** exponential growth is capped here *)
  jitter : float;
      (** fraction of the backoff randomised away, in [0,1]; the jitter
          is a deterministic function of (seed, attempt) *)
  request_timeout_ms : float;
      (** responses that arrive after this much simulated time are
          discarded as lost *)
}

val default_policy : policy
(** 6 attempts, 50 ms base backoff doubling to a 2 s cap, 50% jitter,
    1 s per-request timeout. *)

val no_retry : policy
(** Single attempt — the pre-fault-tolerance behaviour. *)

val drawn_backoff_ms :
  policy -> seed:int -> attempt:int -> backoff_rng:(unit -> float) option -> float
(** Backoff charged before retry [attempt + 1] (attempts count from 1),
    with its jitter drawn from [backoff_rng] (a draw in [0,1], taken
    once per call) when one is given. *)

type error = { attempts : int; reason : string }
(** Transport gave up: every attempt failed transiently; [reason] is the
    last failure. *)

val error_to_string : error -> string

type failure =
  | Refused of string
      (** the service answered [Error_r]: definitive, not retried *)
  | Transport of error  (** attempts exhausted on transient faults *)

val failure_to_string : failure -> string

val request :
  ?policy:policy ->
  ?seed:int ->
  ?backoff_rng:(unit -> float) ->
  ?on_retry:(attempt:int -> reason:string -> unit) ->
  clock:Clock.t ->
  t ->
  bytes ->
  (Service.response, error) result
(** Send [bytes], decode the response, retrying transient faults
    (transport {!Timeout}, undecodable bytes, responses slower than the
    policy's timeout) with backoff.  [on_retry] fires before each backoff
    — clients use it to enter degraded mode.  When [backoff_rng] is given
    (a draw in [0,1], e.g. {!Ledger_fault.Faulty_transport.backoff_rng}
    over the seeded fault-plan RNG), backoff jitter is drawn from it
    instead of the internal (seed, attempt) mix, so one seed governs the
    fault schedule {e and} the retry schedule. *)

val request_expect :
  ?policy:policy ->
  ?seed:int ->
  ?backoff_rng:(unit -> float) ->
  ?on_retry:(attempt:int -> reason:string -> unit) ->
  clock:Clock.t ->
  decode:(Service.response -> 'a option) ->
  t ->
  bytes ->
  ('a, failure) result
(** Like {!request} but also checks the response {e shape}: a decodable
    response that [decode] rejects (e.g. a reordered reply to some other
    request) is retried from the shared attempt budget.  An explicit
    service refusal short-circuits as [Refused]. *)
