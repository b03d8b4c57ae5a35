(** Append-only stream storage.

    LedgerDB "implements a stream file system … to manage journals"
    (paper §II-C).  A store holds named streams; each stream is an
    append-only sequence of variable-length records addressed by a dense
    record index.  Records are never overwritten; the only mutation is
    {!erase}, which supports the purge/occult reorganization utility by
    blanking a record's payload while keeping its slot (so indices remain
    stable and verification protocols can observe the erasure).

    The implementation keeps data in memory in segment buffers (4 KiB
    pages) and can persist to a directory for durability.  On disk every
    record is CRC-32 framed ({!Framing}), so {!recover} can reopen a
    directory after a crash, classify the damage (torn tail vs corrupt
    record), truncate back to the last intact record and report exactly
    how far the log was recovered.  Reads optionally charge a
    {!Latency_model.t} so higher layers can simulate I/O cost. *)

type t
(** A stream store. *)

type stream
(** A handle to one named stream. *)

(** {1 Read errors}

    The storage layer never raises bare [Invalid_argument]/[Not_found]:
    callers on the latency-charged path get a typed error they can match
    on (or a dedicated exception carrying the same payload). *)

type read_error =
  | Out_of_range of { stream : string; index : int; length : int }
  | Erased of { stream : string; index : int }
      (** the record's payload was blanked by {!erase} (occult/purge) *)

exception Read_error of read_error

val read_error_to_string : read_error -> string

val create : ?dir:string -> unit -> t
(** In-memory store; with [dir], {!persist} writes each stream to
    [dir/<stream>.log] so content survives the process. *)

val healthy : t -> bool
(** [false] once {!Unsafe.kill} has been applied; higher layers probe
    this before committing work that must not be torn across stores
    (e.g. an epoch super-root seal over many shards). *)

(** Chaos hooks for the fault-injection suite. *)
module Unsafe : sig
  val kill : t -> unit
  (** Simulate a dead storage node: every subsequent append/read/persist
      on the store (or on any of its stream handles) raises [Sys_error],
      and {!healthy} reports [false].  Irreversible for the lifetime of
      the store. *)
end

val stream : t -> string -> stream
(** Get or create the named stream. *)

val stream_name : stream -> string

(** {1 Ownership}

    A store takes ownership of the bytes it is given: {!append} and
    {!append_many} keep the caller's buffer as the record, with no copy,
    so the caller must not mutate it afterwards.  Every read hands out a
    fresh copy.  This lets a ledger hold one resident copy per payload,
    shared by its journal and its record. *)

val append : stream -> bytes -> int
(** Append a record, returning its index (0-based, dense): the
    one-record case of {!append_many}.  The store owns [bytes] from
    here on. *)

val append_many : stream -> bytes list -> int
(** Append a whole batch of records in one storage operation, returning
    the index of the first (the pre-batch {!length} when the list is
    empty).  The store owns every buffer in the list from here on.
    Every record counts in [storage_appends_total] and
    [storage_record_bytes]; the operation counts once in
    [storage_batch_appends_total], whatever its size. *)

val length : stream -> int
(** Number of records ever appended (erased records still count). *)

val read : ?latency:Latency_model.t * Clock.t -> stream -> int -> bytes
(** [read stream i] returns record [i].
    @raise Read_error when [i] is out of range or the record was erased. *)

val read_result :
  ?latency:Latency_model.t * Clock.t -> stream -> int ->
  (bytes, read_error) result
(** Non-raising form of {!read}. *)

val read_opt : ?latency:Latency_model.t * Clock.t -> stream -> int -> bytes option
(** Like {!read} but [None] for erased records.
    @raise Read_error when [i] is out of range. *)

val is_erased : stream -> int -> bool

(** {1 Pinned reads}

    A {!pinned} handle captures the stream's current record prefix so
    other domains can read it without synchronizing against the writer:
    appends land beyond the pinned count, and capacity resizes /
    {!compact} swap in fresh arrays, leaving the capture intact.  Record
    objects are shared, so {!erase} remains visible through a pin —
    occulted/purged payloads cannot be resurrected from an old capture.
    Pinned reads never charge a latency model. *)

type pinned

val pin : stream -> pinned
(** Capture the stream's current length as an immutable read prefix. *)

val read_pinned : pinned -> int -> bytes option
(** Like {!read_opt} against the pinned prefix: [None] for erased
    records.  @raise Read_error when the index is outside the pinned
    range; raises [Sys_error] if the owning store was killed. *)

val erase : stream -> int -> unit
(** Blank record [i]'s payload (idempotent).  Its index remains occupied. *)

val iter : stream -> (int -> bytes -> unit) -> unit
(** Iterate over non-erased records in index order. *)

val total_bytes : stream -> int
(** Live payload bytes (erased records contribute zero). *)

val page_count : stream -> int
(** Number of 4 KiB pages occupied by live payload — the unit in which the
    latency model accounts sequential reads. *)

val persist : t -> unit
(** Flush all streams to the backing directory (no-op without [dir]).
    Each log is written to a temp file and renamed into place, and every
    record carries a CRC-32 frame. *)

(** {1 Crash recovery} *)

type damage =
  | Intact  (** the whole log replayed cleanly *)
  | Torn_tail  (** file ended mid-record: crash during append *)
  | Corrupt_record
      (** a complete record failed its checksum / magic / sequence —
          tampering or media rot, not a clean crash *)

type recovery = {
  stream : string;
  recovered_upto : int;
      (** records restored; the first damaged record (if any) would have
          had this index *)
  damage : damage;
  dropped_bytes : int;  (** bytes discarded after the last intact record *)
}

val recover : dir:string -> unit -> t * recovery list
(** Reopen a persisted store.  Every [<stream>.log] in [dir] is replayed
    up to its last intact record; a damaged tail is truncated off the
    file so subsequent persists start from a sound prefix.  The report
    (one entry per stream, sorted by name) says how far each stream
    recovered and what kind of damage stopped it.  Callers that must
    distinguish recoverable crashes from tampering match on {!damage}:
    [Torn_tail] is safe to continue from, [Corrupt_record] demands a
    higher-level integrity check (e.g. {!Ledger.load}'s re-derivation)
    before the data is trusted.
    @raise Invalid_argument if [dir] does not exist. *)

val compact : stream -> (int -> int -> unit) -> int
(** Rewrite the stream dropping erased slots; calls the remap function
    with [(old_index, new_index)] for every surviving record and returns
    the number of slots reclaimed.  Indices are re-densified, so callers
    must update any stored addresses via the remap callback. *)

val live_records : stream -> int
(** Records that still hold a payload. *)
