(** The one owner of field encodings for wire and storage formats.

    Every format in the system — journals, proofs, service envelopes,
    gossip announcements, the frame headers of {!Ledger_storage.Framing}
    and stream-store records — encodes its fields through these
    functions and keeps only its own layout: tags, field order and list
    caps.  Fixed-width fields are big-endian and go through the
    stdlib's [Bytes.{get,set}_int{32,64}_be].
    Decoding is total at the API boundary: readers raise the private
    {!Corrupt} exception internally and {!decode} converts it to
    [None]. *)

type writer
(** An append-only encoder: a flat growable buffer. *)

val writer : unit -> writer

val w_u8 : writer -> int -> unit
val w_int : writer -> int -> unit
(** 8-byte big-endian two's complement. *)

val w_int64 : writer -> int64 -> unit
val w_bytes : writer -> bytes -> unit
(** Length-prefixed. *)

val w_string : writer -> string -> unit
val w_raw : writer -> bytes -> unit
(** No length prefix (fixed-size fields). *)

val w_hash : writer -> Hash.t -> unit
val w_sig : writer -> Ecdsa.signature -> unit
(** The 64-byte r ∥ s encoding, no length prefix. *)

val w_list : writer -> ('a -> unit) -> 'a list -> unit
(** Count-prefixed. *)

val w_option : writer -> ('a -> unit) -> 'a option -> unit
val contents : writer -> bytes
(** A copy of the written bytes, at exact size. *)

val encode : (writer -> unit) -> bytes
(** [encode fill] runs [fill] on this domain's reusable writer and
    returns {!contents}: one allocation, at exact size, whatever the
    answer's length.  [fill] must not keep the writer.  A caller that
    finds the domain's writer in use — another systhread of the domain,
    or an [encode] or {!encode_digest} inside [fill] — gets a fresh
    writer instead, so no two callers ever share one.  A writer that
    grew past 64 KiB is released after the call. *)

val encode_digest : (writer -> unit) -> Hash.t
(** [encode_digest fill] is the SHA-256 of what [fill] writes, through
    the same reusable writer as {!encode}, hashed where the bytes lie:
    the digest input is never copied out. *)

val set_u32 : bytes -> int -> int -> unit
(** [set_u32 b pos v] writes the low 32 bits of [v] big-endian at [pos]
    (frame and record headers). *)

val get_u32 : bytes -> int -> int
(** [get_u32 b pos] reads an unsigned big-endian 32-bit value at [pos]. *)

type reader

exception Corrupt

val r_u8 : reader -> int
val r_int : reader -> int
val r_int64 : reader -> int64
val r_bytes : reader -> bytes
val r_string : reader -> string
val r_raw : reader -> int -> bytes
val r_hash : reader -> Hash.t
val r_sig : reader -> Ecdsa.signature
(** Inverse of {!w_sig}: any 64 bytes decode, as in
    {!Ecdsa.signature_of_bytes}. *)

val r_list : ?max:int -> reader -> (unit -> 'a) -> 'a list
val r_option : reader -> (unit -> 'a) -> 'a option

val decode : bytes -> (reader -> 'a) -> 'a option
(** Run a decoder; [None] on {!Corrupt}, truncation, or trailing bytes. *)
