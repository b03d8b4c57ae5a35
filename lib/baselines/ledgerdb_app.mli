(** LedgerDB as an application backend for the §VI-D comparisons.

    Wraps {!Ledger_core.Ledger} with the two applications of the paper —
    data notarization (unique document ids) and data lineage (clue-keyed
    version chains) — and with deployment cost profiles:

    - {!create_local}: the in-cluster deployment compared against
      Hyperledger Fabric (Fig. 10);
    - {!create_cloud}: the public-cloud service deployment compared
      against QLDB (Table II) — every API call pays a cloud round trip.

    Verification cost structure (the load-bearing part): the server
    resolves the clue through CM-Tree1, performs {e one random I/O per
    entry} of the clue's CM-Tree2 (the behaviour that gives Fabric the
    >50-entry crossover in Fig. 10(c)) and ships a constant-size batch
    proof that the client replays locally. *)

open Ledger_storage

type t

val create_local : clock:Clock.t -> t
val create_cloud : clock:Clock.t -> t

(** {1 Notarization} *)

val insert : t -> id:string -> bytes -> unit

val insert_pipelined : t -> id:string -> bytes -> unit
(** Closed-loop throughput variant: only server-side service time is
    charged (clients pipeline requests over the connection). *)

val retrieve : t -> id:string -> bytes option
val verify : t -> id:string -> bool

(** {1 Lineage} *)

val put_version : t -> key:string -> bytes -> unit
val version_count : t -> key:string -> int
val verify_lineage : t -> key:string -> bool

val verify_lineage_server : t -> key:string -> bool
(** Server-side service work only (no client RTT) — the unit measured in
    the Fig. 10(c) throughput sweep. *)

val size : t -> int
