(** The Time Ledger (T-Ledger) — paper §III-B2.

    A public notary ledger operated by the LSP that sits between common
    ledgers and the TSA, forming the two-layer time-notary architecture:

    - {e top layer}: every Δτ the T-Ledger runs the two-way pegging
      protocol (Protocol 3) with a TSA pool — its accumulated digest is
      endorsed and the signed token is anchored back as a TSA entry;
    - {e bottom layer}: common ledgers {!submit} their digests under the
      advanced one-way protocol (Protocol 4) — a submission carrying
      client timestamp τ_c is accepted only while τ_t < τ_c + τ_Δ, which
      removes the infinite-amplification attack.

    [verify_entry_time] returns the judicially defensible time bounds of
    an anchored entry: the TSA endorsements bracketing it. *)

open Ledger_crypto
open Ledger_storage
open Ledger_merkle

type t

type entry_kind =
  | Ledger_digest of { ledger_id : Hash.t; client_ts : int64 }
  | Tsa_anchor of Tsa.token

type entry = { index : int; kind : entry_kind; digest : Hash.t; notary_ts : int64 }

type error = Stale_submission of { client_ts : int64; notary_ts : int64 }

val create :
  ?tau_delta_ms:float ->
  ?anchor_interval_ms:float ->
  clock:Clock.t ->
  tsa:Tsa.pool ->
  unit ->
  t
(** [tau_delta_ms] is τ_Δ (default 500 ms); [anchor_interval_ms] is Δτ
    (default 1000 ms — "T-Ledger seeks TSA proof every second"). *)

val submit :
  t -> ledger_id:Hash.t -> digest:Hash.t -> client_ts:int64 -> (entry, error) result
(** Protocol 4.  Also runs {!tick} first, so TSA anchors appear on
    schedule. *)

val tick : t -> unit
(** Run the periodic TSA finalization if Δτ has elapsed. *)

val force_anchor : t -> entry
(** Immediately run one two-way pegging round (used at audit start). *)

val entry_count : t -> int
val entry : t -> int -> entry
val root : t -> Hash.t
val prove_entry : t -> int -> Proof.path
(** Existence proof of an entry against {!root}. *)

val verify_entry : root:Hash.t -> entry:entry -> Proof.path -> bool

val verify_entry_time : t -> int -> (int64 option * int64 option) option
(** [(lower, upper)] TSA-endorsed bounds for an entry: the timestamps of
    the nearest TSA anchors before and after it.  [None] fields mean no
    anchor on that side yet; [None] result means no such entry.  Verifies
    the anchors' TSA signatures before trusting them. *)

val anchors_between : t -> int -> int -> Tsa.token list
(** All TSA anchor tokens with indices in the inclusive range. *)

val tau_delta_us : t -> int64
