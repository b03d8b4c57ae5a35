(* Index-equivalence checks shared by the snapshot, replica and salvage
   tests: a ledger rebuilt from a snapshot must answer a verified range
   query exactly like its origin.  An empty page verifies against an
   empty index, so the checks compare the query root as well as the rows
   and insist that the origin's scan is non-empty. *)

open Ledger_crypto
open Ledger_core
open Ledger_query

(* Every page of a [Prefix prefix] scan, checked against the ledger's own
   query root; the verified rows as (clue, total, [(jsn, tx-hex)]). *)
let prefix_rows ledger prefix =
  let spec = Range_query.Prefix prefix and page_size = 2 in
  let idx = Ledger.query_index ledger in
  let rec pages after acc =
    let pg = Range_query.page idx ~spec ?after ~page_size () in
    match pg.Range_query.cursor with
    | None -> List.rev (pg :: acc)
    | Some c -> pages (Some c) (pg :: acc)
  in
  match
    Range_query.verify_pages ~root:(Ledger.query_root ledger) ~spec ~page_size
      (pages None [])
  with
  | Error e -> Alcotest.failf "prefix scan %S does not verify: %s" prefix e
  | Ok rows ->
      List.map
        (fun (r : Range_query.result_row) ->
          ( r.Range_query.r_clue,
            r.Range_query.r_total,
            List.map
              (fun (jsn, tx) -> (jsn, Hash.to_hex tx))
              r.Range_query.r_entries ))
        rows

let rows_t = Alcotest.(list (triple string int (list (pair int string))))

(* [rebuilt] has [origin]'s query root, and a verified [Prefix prefix]
   scan returns the origin's (non-empty) rows. *)
let check_same_index ~origin ~prefix rebuilt =
  Alcotest.(check string) "query root" (Hash.to_hex (Ledger.query_root origin))
    (Hash.to_hex (Ledger.query_root rebuilt));
  let expected = prefix_rows origin prefix in
  if expected = [] then Alcotest.failf "origin has no rows under %S" prefix;
  Alcotest.check rows_t
    (Printf.sprintf "verified Prefix %S scan" prefix)
    expected (prefix_rows rebuilt prefix)
