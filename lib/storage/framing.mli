(** The one owner of the CRC-32-checked frame layout, on disk and on
    the socket.

    Every durable log in the system — stream-store segments, ledger
    snapshot files, replica staging files — and every message on a
    service socket is one frame:

    {v magic:4  len:u32be  payload  crc32(len ++ payload):u32be v}

    with magic ["LDBR"] on disk and ["LDBW"] on the socket
    ({!Ledger_net.Net_framing}).  {!frame} builds a frame and {!scan}
    judges one; the file walker {!fold} and the socket's incremental
    decoder both read through {!scan} and keep only their own policy.

    The walker classifies damage precisely.  The distinction between a
    {e torn} record (file ends mid-record: a crash during append;
    truncating to the last boundary is sound recovery) and a {e corrupt}
    record (complete but failing its checksum or magic: tampering or
    media rot; must be surfaced, never silently dropped) drives every
    recovery policy above this module. *)

val header_len : int
(** Bytes before the payload: magic + length field (8). *)

val overhead : int
(** Non-payload bytes per frame: header + trailing CRC (12). *)

val frame : magic:string -> bytes -> bytes
(** [frame ~magic payload] is one complete frame; [magic] is 4 bytes. *)

val frame_into : magic:string -> bytes -> bytes -> unit
(** [frame_into ~magic payload out] writes {!frame}'s bytes at the start
    of [out], which must hold [overhead + Bytes.length payload]. *)

(** The verdict on the bytes buffered at the start of a frame. *)
type scan =
  | Need of int
      (** too few bytes to judge: at least this many more are needed *)
  | Bad_magic
      (** a byte of the magic differs — judged on however much of it has
          arrived *)
  | Too_long of int  (** the length field claims more than the limit *)
  | Bad_crc  (** a complete frame whose checksum does not match *)
  | Record of int
      (** a complete, intact frame with this payload length; the payload
          starts {!header_len} bytes in *)

val scan :
  magic:string -> limit:int -> bytes -> pos:int -> avail:int -> scan
(** [scan ~magic ~limit b ~pos ~avail] judges the [avail] bytes of [b]
    from [pos], in this order: magic, header length, [limit] on the
    claimed payload length, frame length, checksum. *)

type stop = End | Torn | Corrupt | Rejected
(** How a {!fold} ended: clean EOF at a record boundary, a file ending
    mid-record, a complete record with bad magic or checksum, or a record
    the caller refused. *)

type ending = { stop : stop; offset : int; dropped_bytes : int }
(** [offset] is where the walk stopped: the start of the record that
    ended it — the safe truncation point — or the file length at [End].
    [dropped_bytes] runs from there to the end of the file. *)

val write : out_channel -> bytes -> unit
(** Append one ["LDBR"] record. *)

val fold :
  string -> init:'a -> ('a -> offset:int -> bytes -> 'a option) -> 'a * ending
(** [fold path ~init f] walks the framed log at [path] from its first
    record, passing each checksum-verified record and its start offset to
    [f]; [f] returns [None] to refuse the record and stop the walk.
    Returns the last accumulator and how the walk ended.  A record
    claiming more than 1 GiB is [Corrupt]; a file that ends inside a
    record is [Torn] unless its whole magic arrived and is wrong, and a
    claim longer than the rest of the file is [Torn] without being
    allocated.  Never raises on damaged input; the file is closed even
    when [f] raises. *)

val truncate_file : string -> keep:int -> unit
(** Truncate the file at [keep] bytes — used to discard a torn tail after
    {!fold} reported it. *)
