(** A Factom-style notarization blockchain (Table I row; §II-A).

    Entries are grouped into per-application {e chains}; every anchoring
    period the pending entry blocks are merkelized into a {e directory
    block}, and the directory-block chain is anchored into a Bitcoin-like
    block chain ({!Ledger_merkle.Bim}).  Existence verification walks
    entry → entry block → directory block → Bitcoin anchor — rigorous
    *what*, coarse *when* (Bitcoin's ~10-minute blocks, not judicial),
    and the "Highest" storage overhead of Table I (every layer persists
    headers and blocks). *)

open Ledger_crypto
open Ledger_storage

type t

val create : ?anchor_interval_ms:float -> clock:Clock.t -> unit -> t

val add_entry : t -> chain:string -> bytes -> Hash.t
(** Record an entry; returns its digest.  Pending until the next
    directory block. *)

val seal_directory_block : t -> int
(** Cut a directory block from the pending entries and anchor it into the
    Bitcoin-like chain; returns the directory block height.
    @raise Invalid_argument when nothing is pending. *)

val tick : t -> unit
(** Seal automatically when the anchoring interval elapsed. *)

val directory_blocks : t -> int

type proof

val prove_entry : t -> chain:string -> Hash.t -> proof option
(** Proof for an entry digest recorded on the given chain ([None] if
    unknown or still pending). *)

val verify_entry : t -> chain:string -> Hash.t -> proof -> bool

val anchored_time : t -> chain:string -> Hash.t -> int64 option
(** Timestamp of the Bitcoin anchor covering the entry — the coarse
    *when* evidence. *)

val storage_bytes : t -> int
(** Total bytes of entries + entry blocks + directory blocks + anchors. *)
