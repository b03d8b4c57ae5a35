(** HMAC-SHA256 (RFC 2104), used for deterministic ECDSA nonces. *)

val mac : key:bytes -> bytes -> bytes
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag of [msg] under [key]. *)

type keyed
(** A key prepared for many messages: its padded blocks and two hashing
    contexts, built once and reused.  Mutable; owned by one caller. *)

val keyed : bytes -> keyed

val mac_keyed : keyed -> bytes -> bytes
(** [mac_keyed (keyed key) msg] is [mac ~key msg]. *)

val mac_string : key:string -> string -> bytes
