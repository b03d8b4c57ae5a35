(** CRC-32-checked record framing for on-disk logs.

    Every durable log in the system — stream-store segments, ledger
    snapshot files, replica staging files — shares one frame format:

    {v "LDBR"  len:u32be  payload  crc32(len ++ payload):u32be v}

    so a single reader can classify damage precisely.  The distinction
    between a {e torn} record (file ends mid-record: a crash during
    append; truncating to the last boundary is sound recovery) and a
    {e corrupt} record (complete but failing its checksum or magic:
    tampering or media rot; must be surfaced, never silently dropped)
    drives every recovery policy above this module. *)

type stop = End | Torn | Corrupt | Rejected
(** How a {!fold} ended: clean EOF at a record boundary, a file ending
    mid-record, a complete record with bad magic or checksum, or a record
    the caller refused. *)

type ending = { stop : stop; offset : int; dropped_bytes : int }
(** [offset] is where the walk stopped: the start of the record that
    ended it — the safe truncation point — or the file length at [End].
    [dropped_bytes] runs from there to the end of the file. *)

val write : out_channel -> bytes -> unit
(** Append one framed record. *)

val fold :
  string -> init:'a -> ('a -> offset:int -> bytes -> 'a option) -> 'a * ending
(** [fold path ~init f] walks the framed log at [path] from its first
    record, passing each checksum-verified record and its start offset to
    [f]; [f] returns [None] to refuse the record and stop the walk.
    Returns the last accumulator and how the walk ended.  Never raises on
    damaged input; the file is closed even when [f] raises. *)

val truncate_file : string -> keep:int -> unit
(** Truncate the file at [keep] bytes — used to discard a torn tail after
    {!fold} reported it. *)
