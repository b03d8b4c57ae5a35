(** Socket-level frame codec for the tagged {!Ledger_core.Service}
    envelopes.

    TCP delivers a byte stream, not messages, so every request and
    response crosses the wire as one {!Ledger_storage.Framing} frame:

    {v "LDBW"  len:u32be  payload  crc:u32be v}

    where [crc] is CRC-32 over ([len:u32be] ++ [payload]).  [Framing]
    owns that layout and its checks for disk and socket alike; this
    module adds the distinct magic — so a journal file accidentally
    piped at a socket is rejected on the first four bytes — the
    [max_frame] bound and the incremental buffering.

    The decoder is {e incremental}: feed it whatever [read] returned and
    pull complete frames out.  It never raises on wire input — a peer
    can send garbage, a frame claiming 4 GiB, or half a message and then
    hang up, and the decoder answers with a typed {!step}.  After a
    {!step.Fail} the decoder is poisoned: resynchronising inside an
    untrusted byte stream is a protocol redesign, not a recovery, so the
    connection must be dropped. *)

val magic : string
(** ["LDBW"] — wire frames, vs ["LDBR"] for on-disk records. *)

val header_len : int
(** Bytes before the payload: magic + length prefix (8). *)

val default_max_frame : int
(** 8 MiB — comfortably above the largest proof bundle, far below a
    memory-exhaustion allocation. *)

val encode : bytes -> bytes
(** [encode payload] is one complete frame. *)

val encode_into : bytes -> bytes -> unit
(** [encode_into out payload] writes {!encode}'s bytes at the start of
    [out], which must hold {!header_len}[ + 4 + Bytes.length payload]:
    a sender reusing one buffer builds each frame in place. *)

type error =
  | Bad_magic  (** first four bytes are not {!magic} *)
  | Oversized of { claimed : int; limit : int }
      (** length prefix exceeds the decoder's limit; the claimed size is
          reported {e without} having been allocated *)
  | Bad_crc  (** checksum mismatch over a complete frame *)

val error_to_string : error -> string

type decoder

val create_decoder : ?max_frame:int -> unit -> decoder
(** [max_frame] defaults to {!default_max_frame}; it bounds the payload
    length a frame may claim, and therefore the decoder's buffering. *)

type step =
  | Frame of bytes  (** one complete payload, exactly as encoded *)
  | Awaiting of int
      (** no complete frame buffered; at least this many more bytes are
          needed before {!next} can make progress *)
  | Fail of error
      (** the stream is broken; every future {!next} repeats this *)

val feed : decoder -> bytes -> pos:int -> len:int -> unit
(** Append raw bytes from the socket.  Feeding a poisoned decoder is a
    no-op. *)

val next : decoder -> step
(** Pull the next complete frame.  Call repeatedly until {!step.Awaiting}
    — one [feed] can complete several frames. *)

val buffered : decoder -> int
(** Unconsumed bytes currently held. *)
