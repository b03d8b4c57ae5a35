open Ledger_storage

type t = bytes -> bytes

exception Timeout of string

let () =
  Printexc.register_printer (function
    | Timeout msg -> Some ("Transport.Timeout: " ^ msg)
    | _ -> None)

type policy = {
  max_attempts : int;
  base_backoff_ms : float;
  max_backoff_ms : float;
  jitter : float;
  request_timeout_ms : float;
}

let default_policy =
  { max_attempts = 6; base_backoff_ms = 50.; max_backoff_ms = 2_000.;
    jitter = 0.5; request_timeout_ms = 1_000. }

let no_retry = { default_policy with max_attempts = 1 }

(* Backoff before retry [attempt + 1]: exponential growth capped at
   [max_backoff_ms], with a fraction [jitter * u] taken away for a jitter
   draw [u] in [0,1]. *)
let jittered_backoff_ms policy ~attempt u =
  let exp =
    policy.base_backoff_ms *. (2. ** float_of_int (max 0 (attempt - 1)))
  in
  let factor = if policy.jitter <= 0. then 1. else 1. -. (policy.jitter *. u) in
  Float.min policy.max_backoff_ms exp *. factor

(* Deterministic jitter: a splitmix-style mix of (seed, attempt) mapped to
   [0, 1], so concurrent clients with different seeds desynchronise their
   retries while a fixed seed replays the exact same schedule. *)
let mixed_unit ~seed ~attempt =
  let z =
    Int64.add
      (Int64.mul (Int64.of_int (seed + 1)) 0x9E3779B97F4A7C15L)
      (Int64.mul (Int64.of_int (attempt + 1)) 0xBF58476D1CE4E5B9L)
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.logand z 0xFFFFFFL) /. float_of_int 0xFFFFFF

let backoff_ms policy ~seed ~attempt =
  jittered_backoff_ms policy ~attempt (mixed_unit ~seed ~attempt)

(* When the caller supplies a jitter source (e.g. the seeded fault-plan
   RNG), the backoff draw comes from it instead of the (seed, attempt)
   mix — one RNG then governs both the fault schedule and the retry
   schedule, so a chaos scenario replays end to end from one seed.  The
   source is drawn once per backoff, jitter or not. *)
let drawn_backoff_ms policy ~seed ~attempt ~backoff_rng =
  match backoff_rng with
  | None -> backoff_ms policy ~seed ~attempt
  | Some draw ->
      jittered_backoff_ms policy ~attempt (Float.max 0. (Float.min 1. (draw ())))

type error = { attempts : int; reason : string }

let error_to_string e =
  Printf.sprintf "transport failed after %d attempt%s: %s" e.attempts
    (if e.attempts = 1 then "" else "s")
    e.reason

type failure = Refused of string | Transport of error

let failure_to_string = function
  | Refused msg -> "service refused: " ^ msg
  | Transport e -> error_to_string e

let request_expect ?(policy = default_policy) ?(seed = 0) ?backoff_rng
    ?(on_retry = fun ~attempt:_ ~reason:_ -> ()) ~clock ~decode transport
    payload =
  (* A response that decodes but has the wrong shape is indistinguishable
     from a reordered/misdelivered one, so it is retried like a transport
     fault — the attempt budget is shared with byte-level faults.  An
     explicit [Error_r] is the service itself speaking: definitive, never
     retried. *)
  let rec go attempt =
    Ledger_obs.Metrics.incr "transport_attempts_total";
    let t0 = Clock.now clock in
    match transport payload with
    | exception Timeout msg -> transient attempt ("timeout: " ^ msg)
    | raw -> (
        let elapsed_ms = Clock.ms_of_us (Clock.elapsed_since clock t0) in
        if elapsed_ms > policy.request_timeout_ms then
          transient attempt
            (Printf.sprintf "response after %.1f ms exceeded %.1f ms budget"
               elapsed_ms policy.request_timeout_ms)
        else
          match Service.decode_response raw with
          | None -> transient attempt "garbled response (undecodable)"
          | Some (Service.Error_r msg) -> Error (Refused msg)
          | Some resp -> (
              match decode resp with
              | Some v -> Ok v
              | None -> transient attempt "unexpected response shape"))
  and transient attempt reason =
    if attempt >= policy.max_attempts then begin
      Ledger_obs.Metrics.incr "transport_failures_total";
      Error (Transport { attempts = attempt; reason })
    end
    else begin
      Ledger_obs.Metrics.incr "transport_retries_total";
      on_retry ~attempt ~reason;
      Clock.advance_ms clock (drawn_backoff_ms policy ~seed ~attempt ~backoff_rng);
      go (attempt + 1)
    end
  in
  go 1

let request ?policy ?seed ?backoff_rng ?on_retry ~clock transport payload =
  match
    request_expect ?policy ?seed ?backoff_rng ?on_retry ~clock
      ~decode:Option.some transport payload
  with
  | Ok resp -> Ok resp
  | Error (Refused msg) -> Ok (Service.Error_r msg)
  | Error (Transport e) -> Error e
