(** Shared binary encoding primitives for wire and storage formats.

    Fixed-width big-endian framing with total (exception-free at the API
    boundary) decoding: readers raise the private {!Corrupt} exception
    internally and {!decode} converts it to [None].  Used by the journal
    codec, the proof codecs, and the client/proxy protocol. *)

type writer
(** An append-only encoder. *)

val writer : ?initial:int -> unit -> writer
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
val w_list : writer -> ('a -> unit) -> 'a list -> unit
(** Count-prefixed. *)

val w_option : writer -> ('a -> unit) -> 'a option -> unit
val contents : writer -> bytes

type reader

exception Corrupt

val reader : bytes -> reader
val r_u8 : reader -> int
val r_int : reader -> int
val r_int64 : reader -> int64
val r_bytes : reader -> bytes
val r_string : reader -> string
val r_raw : reader -> int -> bytes
val r_hash : reader -> Hash.t
val r_list : ?max:int -> reader -> (unit -> 'a) -> 'a list
val r_option : reader -> (unit -> 'a) -> 'a option
val at_end : reader -> bool

val decode : bytes -> (reader -> 'a) -> 'a option
(** Run a decoder; [None] on {!Corrupt}, truncation, or trailing bytes. *)
