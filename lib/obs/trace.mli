(** Span tracing stamped from the simulated clock.

    A span is an [int] handle: {!none} while recording is disabled, so
    the disabled path allocates nothing.  Nesting follows a per-process
    stack: the parent of a new span is the innermost span still open, and
    {!exit} pops through any spans an exception unwound past. *)

type span = int

val none : span

val enter : string -> span
(** Open a span named [name], stamped with the current simulated time
    ({!Obs.enable}'s time source).  Returns {!none} when disabled. *)

val attr : span -> string -> string -> unit
val attr_int : span -> string -> int -> unit

val exit : span -> unit
(** Close the span (end timestamp).  No-op on {!none}. *)

val with_span : string -> (unit -> 'a) -> 'a
(** [enter]/[exit] bracket, exception-safe.  For cold paths — the closure
    allocates even when disabled. *)

type record = {
  id : int;
  seq : int;  (** global event sequence, for interleaving reconstruction *)
  name : string;
  parent : int;  (** 0 = root *)
  depth : int;
  start_us : int64;
  mutable end_us : int64 option;
  mutable attrs : (string * string) list;  (** reverse insertion order *)
}

val find_spans : name:string -> record list
val span_count : unit -> int
val open_spans : unit -> int

val to_json_lines : unit -> string
(** One JSON object per span, newline-separated (JSON-lines export). *)

val reset : unit -> unit
