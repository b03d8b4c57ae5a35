(** Binary wire/storage format for journals.

    A length-prefixed, tagged encoding covering every journal kind
    (normal, time, purge, occult, pseudo-genesis) with signatures and
    cosigner sets — what the ledger proxy ships to shared storage and
    what an external auditor downloads.  Decoding is total: corrupt input
    yields [None], never an exception. *)

open Ledger_crypto

val encode : Journal.t -> bytes

val decode : bytes -> Journal.t option
(** Inverse of {!encode}; [None] on any framing or field corruption. *)

val digest : Journal.t -> Hash.t
(** Digest of the encoding — stable across encode/decode round trips. *)
