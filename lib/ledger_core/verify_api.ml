open Ledger_crypto
module Mpt = Ledger_mpt.Mpt
module Query_index = Ledger_query.Query_index
module Range_query = Ledger_query.Range_query

type level = Server | Client

type target =
  | Existence of { jsn : int; payload_digest : Hash.t option }
  | Clue of { key : string }
  | Clue_range of { key : string; first : int; last : int }
  | Receipt_check of Receipt.t
  | Query_complete of {
      spec : Range_query.spec;
      window : Range_query.window option;
      page_size : int;
    }

type outcome = {
  target : target;
  level : level;
  ok : bool;
  detail : string;
}

let verify_existence ledger level jsn payload_digest =
  if jsn < 0 || jsn >= Ledger.size ledger then (false, "jsn out of range")
  else
    match level with
    | Server -> (
        (* the server checks its own accumulator leaf directly *)
        let stored = Ledger.tx_hash_of ledger jsn in
        let j = Ledger.journal ledger jsn in
        let recomputed =
          if Ledger.is_occulted ledger jsn then stored else Journal_codec.digest j
        in
        if not (Hash.equal stored recomputed) then
          (false, "server: journal content does not match leaf")
        else
          match payload_digest with
          | None -> (true, "server: leaf consistent")
          | Some d -> (
              match Ledger.payload ledger jsn with
              | Some p when Hash.equal (Hash.digest_bytes p) d ->
                  (true, "server: payload digest matches")
              | Some _ -> (false, "server: payload digest mismatch")
              | None -> (false, "server: payload erased")))
    | Client ->
        let proof = Ledger.get_proof ledger jsn in
        if Ledger.verify_existence ledger ~jsn ~payload_digest proof then
          (true, "client: fam proof verified against commitment")
        else (false, "client: fam proof rejected")

let verify_clue ledger level key range =
  let entries = Ledger.clue_entries ledger key in
  if entries = 0 then (false, "unknown clue")
  else
    match level with
    | Server ->
        if Ledger.verify_clue_server ledger ~clue:key then
          (true, Printf.sprintf "server: %d entries consistent" entries)
        else (false, "server: clue accumulator mismatch")
    | Client -> (
        let first, last =
          match range with Some (f, l) -> (f, l) | None -> (0, entries - 1)
        in
        if first < 0 || last >= entries || first > last then
          (false, "version range out of bounds")
        else
          match Ledger.prove_clue ledger ~clue:key ~first ~last () with
          | None -> (false, "server failed to assemble the clue proof")
          | Some proof ->
              if Ledger.verify_clue_client ledger proof then
                ( true,
                  Printf.sprintf "client: versions %d..%d verified" first last )
              else (false, "client: CM-Tree proof rejected"))

let spec_str = function
  | Range_query.Prefix p -> Printf.sprintf "prefix %S" p
  | Range_query.Between { lo; hi } ->
      Printf.sprintf "range %S..%s" lo
        (match hi with Some h -> Printf.sprintf "%S" h | None -> "∞")

let verify_query ledger level spec window page_size =
  if page_size <= 0 then (false, "page_size must be positive")
  else
    let idx = Ledger.query_index ledger in
    match level with
    | Server ->
        (* the server checks its own ordered index: every committed value
           in the range must decode and agree with the in-memory log *)
        let lo, hi = Range_query.bounds spec in
        let ok = ref true and n = ref 0 in
        Mpt.iter_range (Query_index.trie idx) ~lo ?hi (fun key value ->
            incr n;
            match Query_index.clue_of_key key with
            | None -> ok := false
            | Some clue -> (
                match Query_index.decode_value value with
                | Some (count, chain)
                  when count = Query_index.clue_count idx ~clue
                       && Hash.equal chain (Query_index.chain_at idx ~clue count)
                  ->
                    ()
                | _ -> ok := false));
        if !ok then (true, Printf.sprintf "server: %d clues consistent" !n)
        else (false, "server: ordered index entry inconsistent")
    | Client -> (
        (* full paginated scan replayed through the client-side verifier.
           Root and pages come from one published snapshot, so the replay
           cannot straddle a concurrent append: the completeness verdict
           is about a single index state. *)
        let v = Ledger.read_view ledger in
        let idx = Ledger.Read_view.query_index v in
        let root = Ledger.Read_view.query_root v in
        let rec collect after acc guard =
          if guard > 1_000_000 then Error "pagination did not terminate"
          else
            let pg = Range_query.page idx ~spec ?window ?after ~page_size () in
            match pg.Range_query.cursor with
            | Some c -> collect (Some c) (pg :: acc) (guard + 1)
            | None -> Ok (List.rev (pg :: acc))
        in
        match collect None [] 0 with
        | Error e -> (false, e)
        | Ok pages -> (
            match
              Range_query.verify_pages ~root ~spec ?window ~page_size pages
            with
            | Ok rows ->
                ( true,
                  Printf.sprintf "client: %d pages, %d rows verified"
                    (List.length pages) (List.length rows) )
            | Error e -> (false, "client: " ^ e)))

let verify_receipt ledger (r : Receipt.t) =
  if not (Ledger.verify_receipt ledger r) then
    (false, "receipt signature invalid")
  else if
    r.Receipt.jsn < Ledger.size ledger
    && not (Hash.equal r.Receipt.tx_hash (Ledger.tx_hash_of ledger r.Receipt.jsn))
  then (false, "receipt tx-hash diverges from the ledger (repudiation)")
  else (true, "receipt verified")

let level_name = function Server -> "server" | Client -> "client"

let record_audit ~verifier o =
  if Ledger_obs.Obs.enabled () then
    let subject =
      match o.target with
      | Existence { jsn; _ } -> Ledger_obs.Audit_log.Journal jsn
      | Clue { key } | Clue_range { key; _ } -> Ledger_obs.Audit_log.Clue key
      | Receipt_check r -> Ledger_obs.Audit_log.Receipt r.Receipt.jsn
      | Query_complete { spec; _ } -> Ledger_obs.Audit_log.Clue (spec_str spec)
    in
    Ledger_obs.Audit_log.record ~verifier subject
      (if o.ok then Ledger_obs.Audit_log.Verified
       else Ledger_obs.Audit_log.Repudiated o.detail)

let check ledger ~level target =
  let sp = Ledger_obs.Trace.enter "verify" in
  let ok, detail =
    match target with
    | Existence { jsn; payload_digest } ->
        verify_existence ledger level jsn payload_digest
    | Clue { key } -> verify_clue ledger level key None
    | Clue_range { key; first; last } ->
        verify_clue ledger level key (Some (first, last))
    | Receipt_check r -> verify_receipt ledger r
    | Query_complete { spec; window; page_size } ->
        verify_query ledger level spec window page_size
  in
  Ledger_obs.Trace.exit sp;
  { target; level; ok; detail }

let verify ledger ~level target =
  let o = check ledger ~level target in
  record_audit ~verifier:(level_name level) o;
  o

let verify_all ledger ~level targets =
  let outcomes = List.map (verify ledger ~level) targets in
  (outcomes, List.for_all (fun o -> o.ok) outcomes)

let pp_outcome fmt o =
  let target =
    match o.target with
    | Existence { jsn; _ } -> Printf.sprintf "existence jsn=%d" jsn
    | Clue { key } -> Printf.sprintf "clue %s" key
    | Clue_range { key; first; last } ->
        Printf.sprintf "clue %s [%d..%d]" key first last
    | Receipt_check r -> Printf.sprintf "receipt jsn=%d" r.Receipt.jsn
    | Query_complete { spec; window; page_size } ->
        Printf.sprintf "query %s%s page_size=%d" (spec_str spec)
          (match window with
          | Some { Range_query.t1; t2 } -> Printf.sprintf " jsn∈[%d,%d]" t1 t2
          | None -> "")
          page_size
  in
  Format.fprintf fmt "%s @@ %s: %s (%s)" target (level_name o.level)
    (if o.ok then "OK" else "FAILED")
    o.detail
