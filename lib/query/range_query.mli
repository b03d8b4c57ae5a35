(** Verifiable range/prefix queries with completeness proofs and
    verifiable pagination (DESIGN.md §16).

    A query names a clue range — [Prefix p] or the half-open
    [Between {lo; hi}] in byte-lexicographic order — plus an optional jsn
    window.  The service answers in fixed-size pages; every page carries a
    pruned-subtrie completeness proof over exactly the key interval it
    claims to cover, so the client re-derives the full, ordered,
    untampered result set from the committed {!Query_index} root alone:

    - {e omitted / added / altered rows} change the recomputed root;
    - {e tampered jsn lists} break the per-clue rolling-hash chain that
      the committed value closes;
    - {e dropped / re-ordered / truncated pages} break cursor chaining:
      page N's proof covers [[cursor_(N-1), cursor_N)) and the final page
      must cover to the end of the query range;
    - {e hidden epochs} under a window are detectable because the suffix
      the service returns must close the committed chain and start with a
      boundary witness below [t1]. *)

open Ledger_crypto

type spec = Prefix of string | Between of { lo : string; hi : string option }

type window = { t1 : int; t2 : int }
(** Inclusive jsn window. *)

type row = {
  clue : string;
  total : int;  (** committed number of entries for this clue *)
  prefix_count : int;  (** entries elided before the returned suffix *)
  prefix_digest : Hash.t;  (** chain digest over the elided prefix *)
  entries : (int * Hash.t) list;  (** (jsn, tx) suffix, oldest first *)
}

type page = {
  rows : row list;
  proof : Ledger_mpt.Mpt.range_proof;
  cursor : string option;  (** last clue of the page; [None] on the final page *)
}

type result_row = {
  r_clue : string;
  r_total : int;
  r_entries : (int * Hash.t) list;  (** window-filtered when a window was given *)
}

val bounds : spec -> string * string option
(** Nibble-key interval [[lo, hi)] a spec covers. *)

val spec_matches : spec -> string -> bool

(** {1 Server side} *)

val page :
  Query_index.t ->
  spec:spec ->
  ?window:window ->
  ?after:string ->
  page_size:int ->
  unit ->
  page
(** Assemble one page of at most [page_size] clues starting after the
    cursor [after] (or at the start of the range). *)

(** {1 Client side} *)

val verify_page :
  root:Hash.t ->
  spec:spec ->
  ?window:window ->
  ?after:string ->
  page_size:int ->
  page ->
  (result_row list * string option, string) result
(** Check one page against the trusted index [root]; returns the verified
    rows plus the continuation cursor. *)

val verify_pages :
  root:Hash.t ->
  spec:spec ->
  ?window:window ->
  page_size:int ->
  page list ->
  (result_row list, string) result
(** Check a whole paginated scan: cursor chaining between pages, no
    trailing cursor on the final page, and each page against [root]. *)

(** {1 Wire codec} *)

val w_spec : Wire.writer -> spec -> unit
val r_spec : Wire.reader -> spec
val w_window : Wire.writer -> window -> unit
val r_window : Wire.reader -> window
val w_page : Wire.writer -> page -> unit
val r_page : Wire.reader -> page
val encode_page : page -> bytes
val decode_page : bytes -> page option
val page_bytes : page -> int
