(** Binary wire/storage format for journals.

    A length-prefixed, tagged encoding covering every journal kind
    (normal, time, purge, occult, pseudo-genesis) with signatures and
    cosigner sets — what the ledger proxy ships to shared storage and
    what an external auditor downloads.  Every field goes through
    {!Ledger_crypto.Wire}; this module owns only the layout: the
    ["LDBJ1"] magic, the kind tags [N T L P O G], the field order and
    the list caps (10{^6} clues and survivors, 10{^4} cosigners).
    Decoding is total: corrupt input yields [None], never an
    exception. *)

open Ledger_crypto

val encode : Journal.t -> bytes

val decode : bytes -> Journal.t option
(** Inverse of {!encode}; [None] on any framing or field corruption. *)

val digest : Journal.t -> Hash.t
(** The journal's tx hash, the accumulator leaf: the SHA-256 of
    {!encode}, so every field of every kind is covered exactly once, in
    the one layout the journal is stored and shipped in.  For an
    occulted journal the ledger keeps the retained hash instead
    (Protocol 2 is applied by the ledger, not here). *)
