(** CRC-32 (IEEE 802.3) checksums for on-disk record framing.

    Torn writes and silent media corruption must be {e detectable} before
    any byte reaches a codec: a checksum mismatch is the storage layer's
    first line of defence, cheaper and earlier than the cryptographic
    re-derivation that {!Ledger.load} performs on top. *)

val string : string -> int32

val update : int32 -> bytes -> pos:int -> len:int -> int32
(** Incremental form: [update crc b ~pos ~len] extends [crc] with a
    slice, so framed records can checksum header and payload without
    concatenating them. *)
