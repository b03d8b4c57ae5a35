(** Cross-shard verifiable range queries: scatter a prefix/range scan to
    every shard, gather per-shard completeness proofs, and merge into one
    globally ordered, verified result set.

    Clues are partitioned across shards by the public placement function
    ({!Shard_router.route_clue}), so a range of the {e key space} spans
    every shard: each shard answers with its own full pagination
    ({!Ledger_query.Range_query}) proven against its own ordered-index
    root.  The client-side {!merge} then enforces three things no single
    shard can fake:

    - {e per-shard completeness} — each answer's pages verify against
      that shard's query root, so a shard cannot drop or inject rows;
    - {e placement integrity} — every verified clue must route to the
      shard that answered it, so a shard cannot answer for (or shadow)
      keys it does not own, and a dropped shard answer is detected
      because every shard must appear exactly once;
    - {e epoch pinning} (optional) — with [?sealed], each answer's
      journal commitment and size must equal the sealed epoch's entry
      for that shard, anchoring the whole merged result to one
      {!Super_root} digest. *)

open Ledger_crypto

type shard_answer = {
  shard : int;
  query_root : Hash.t;  (** the ordered-index root the pages verify against *)
  commitment : Hash.t;  (** the shard's fam commitment at answer time *)
  size : int;  (** the shard's journal count at answer time *)
  pages : Ledger_query.Range_query.page list;
}

type scatter = { shards : int; answers : shard_answer list }

val scatter :
  Sharded_ledger.t ->
  spec:Ledger_query.Range_query.spec ->
  ?window:Ledger_query.Range_query.window ->
  page_size:int ->
  unit ->
  scatter
(** Server side: run the full paginated scan on every shard, each shard
    answering from its published {!Ledger_core.Ledger.Read_view} — safe
    from any domain while writers append.
    @raise Invalid_argument when [page_size <= 0]. *)

val merge :
  ?sealed:Super_root.sealed ->
  shards:int ->
  spec:Ledger_query.Range_query.spec ->
  ?window:Ledger_query.Range_query.window ->
  page_size:int ->
  scatter ->
  (Ledger_query.Range_query.result_row list, string) result
(** Client side: verify every shard answer and merge (see module doc).
    [shards] is the client's trusted fleet size — taken from topology
    discovery or the sealed epoch, never from the scatter itself. *)

(** {1 Wire codec} *)

val w_scatter : Wire.writer -> scatter -> unit
val r_scatter : Wire.reader -> scatter
val encode_scatter : scatter -> bytes
val decode_scatter : bytes -> scatter option
