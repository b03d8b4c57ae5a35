(** Deterministic storage fault injection.

    A fault plan is a seeded, reproducible schedule of damage against the
    files of a snapshot directory ({!Ledger.save} output, replica staging,
    or stream-store logs): single bit flips (media rot), tail truncations
    (crash mid-write / torn page) and zeroed ranges (trim gone wrong).
    Because the plan derives entirely from its {!Det_rng} seed and the
    sorted directory listing, every chaos run replays byte-identically —
    a failing seed is a bug report.

    The acceptance contract exercised by the chaos suite: after applying
    any plan, a subsequent {!Ledger.load_verbose} either {e recovers}
    (torn tail: intact prefix replayed and reported) or {e refuses
    loudly} (corrupt record: first bad jsn named).  No plan may ever
    yield a silently-wrong ledger. *)

type kind =
  | Bit_flip of { offset : int; mask : int }
  | Truncate_tail of { drop : int }
  | Zero_range of { offset : int; len : int }
  | Torn_frame of { frame : int; within : int }
      (** crash inside a batched flush: the file is cut [within] bytes
          into its [frame]-th CRC frame, so every earlier frame is
          durable and the chosen one is half-written *)

type fault = { file : string; kind : kind }

type t

val faults : t -> fault list
val to_string : t -> string

val plan :
  seed:int ->
  ?bit_flips:int ->
  ?truncations:int ->
  ?zero_ranges:int ->
  ?torn_frames:int ->
  ?only:string list ->
  dir:string ->
  unit ->
  t
(** Draw the requested number of faults against the (non-empty, regular)
    files of [dir]; [only] restricts the candidate files by name.
    Offsets, masks and lengths all come from the seeded rng.  A
    [torn_frames] draw against a file with no intact CRC frames is
    silently skipped (there is no frame to tear). *)

val apply : t -> dir:string -> unit
(** Inflict every fault on the files under [dir]. *)
