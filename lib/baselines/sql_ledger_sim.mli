(** An Azure-SQL-Ledger-style system (Table I row; §VII related work).

    Updatable relational state with an append-only history of
    transactions, hash-chained into blocks; {e forward integrity}: the
    database digest is periodically published to trusted storage outside
    the system, and verification replays history against the latest
    published digest.  Consequences faithfully modeled:

    - tampering {e after} a digest publication is detected;
    - tampering in the window {e before} the digest leaves the system is
      not — the trust gap LedgerDB's two-way TSA pegging closes
      (Table I: trusted dependency "LSP & Storage"). *)

open Ledger_crypto
open Ledger_storage

type t

val create : ?block_size:int -> clock:Clock.t -> unit -> t

val execute : t -> key:string -> bytes -> unit
(** An UPDATE: current state changes, the transaction lands in history. *)

val get : t -> key:string -> bytes option
val history_length : t -> int

val publish_digest : t -> Hash.t
(** Push the current ledger digest to the external trusted storage;
    returns the digest published. *)

val verify : t -> [ `Ok | `Tampered | `No_published_digest ]
(** Replay the history chain and compare with the newest published
    digest. *)

module Unsafe : sig
  val rewrite_history : t -> index:int -> key:string -> bytes -> unit
  (** In-place history rewrite by a malicious operator. *)
end
