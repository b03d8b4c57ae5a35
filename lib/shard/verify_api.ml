open Ledger_crypto
open Ledger_core
include Ledger_core.Verify_api

type sharded_outcome = {
  shard : int;
  outcome : outcome;
  super : Hash.t option;
}

(* The owning shard of a target.  Existence/Receipt jsns are shard-local
   so the caller must name the shard; clue targets re-run the public
   placement function. *)
let owning_shard t ?shard target =
  match (shard, target) with
  | Some i, _ -> i
  | None, (Clue { key } | Clue_range { key; _ }) ->
      Shard_router.route_clue (Sharded_ledger.router t) key
  | None, (Existence _ | Receipt_check _) ->
      invalid_arg
        "Verify_api.verify_sharded: shard-local target needs ~shard (jsns \
         are shard-local)"
  | None, Query_complete _ ->
      invalid_arg
        "Verify_api.verify_sharded: a range query spans shards — use \
         Sharded_query.run, or name a ~shard to check one shard's index"

(* A sealed epoch covers a shard's state only while the shard's current
   commitment still equals its sealed root: verification against the
   super-root is verification of *sealed* history. *)
let covering_epoch t i =
  match Sharded_ledger.latest t with
  | None -> None
  | Some sealed ->
      if
        Hash.equal
          (Ledger.commitment (Sharded_ledger.shard t i))
          sealed.Super_root.shard_roots.(i)
      then Some sealed
      else None

let verify_sharded t ~level ?shard target =
  let i = owning_shard t ?shard target in
  let sealed = covering_epoch t i in
  let super = Option.map Super_root.commitment sealed in
  let local = check (Sharded_ledger.shard t i) ~level target in
  let outcome =
    match (level, sealed, target) with
    | Client, Some sealed, (Existence _ | Receipt_check _) ->
        let inclusion = Super_root.prove sealed ~shard:i in
        if Super_root.verify ~super:(Super_root.commitment sealed) inclusion
        then local
        else
          {
            local with
            ok = false;
            detail = "shard root not included in epoch super-root";
          }
    | _ -> local
  in
  (* the verdict's one audit entry: its verifier string embeds the shard
     so Audit_log.coverage_where can break coverage down per shard *)
  if Ledger_obs.Obs.enabled () then begin
    record_audit
      ~verifier:(Printf.sprintf "shard%d:%s" i (level_name level))
      outcome;
    Ledger_obs.Metrics.incr
      (Printf.sprintf "shard_verifications_total_s%d" i)
  end;
  { shard = i; outcome; super }
