(* Verifiable query layer gates (DESIGN.md §16).

   Three rings of defence, inside out:

   - lib/mpt ordered-key machinery: iteration agrees with a sorted model;
     pruned-subtrie range proofs verify honestly, and over a single-key
     interval [k, k·0) they prove membership or a point miss, reject a
     miss's gap pruned, and reject a present key's holder pruned or its
     value dropped;
   - lib/query: verified paged scans are differentially equal to a naive
     filter over everything ever appended, and every tampering move the
     issue names (omitted/extra/altered row, hidden window epoch,
     re-ordered / dropped pages, stale root) is rejected;
   - end to end: the Service envelope and the sharded scatter/merge return
     client-verified results identical to the naive filter. *)

open Ledger_crypto
open Ledger_mpt
open Ledger_storage
open Ledger_query
open Ledger_core

let check = Alcotest.check
let tc = Alcotest.test_case
let qcheck = QCheck_alcotest.to_alcotest

(* --- generators and models ---------------------------------------------- *)

let arb_nibble_key =
  QCheck.(list_of_size (Gen.int_range 1 8) (int_range 0 15))

let key_of_list l = String.of_seq (Seq.map Nibble.digit (List.to_seq l))
let value_of_int n = Bytes.of_string ("v" ^ string_of_int n)

(* assoc model keyed by nibble paths, last write wins *)
let model_of_bindings bs =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) bs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Mpt.compare_keys a b)

let trie_of_bindings bs =
  let t = Mpt.create () in
  List.iter (fun (k, v) -> Mpt.insert t ~key:k v) bs;
  t

let arb_bindings =
  QCheck.(small_list (pair arb_nibble_key small_nat))

let to_bindings l =
  List.map (fun (k, v) -> (key_of_list k, value_of_int v)) l

(* --- ordered iteration --------------------------------------------------- *)

let range_list t ~lo ?hi () =
  let out = ref [] in
  Mpt.iter_range t ~lo ?hi (fun k v -> out := (k, v) :: !out);
  List.rev !out

let ordered_iteration_agrees =
  QCheck.Test.make ~name:"fold_range = sorted model filter" ~count:120
    QCheck.(triple arb_bindings arb_nibble_key (option arb_nibble_key))
    (fun (raw, lo_l, hi_l) ->
      let bs = to_bindings raw in
      let t = trie_of_bindings bs in
      let model = model_of_bindings bs in
      let lo = key_of_list lo_l in
      let hi = Option.map key_of_list hi_l in
      let expect =
        List.filter (fun (k, _) -> Mpt.key_in_range k ~lo ~hi) model
      in
      range_list t ~lo ?hi () = expect
      (* unbounded scan = full model *)
      && range_list t ~lo:"" () = model)

let take_range_agrees =
  QCheck.Test.make ~name:"take_range = first n of fold_range" ~count:120
    QCheck.(pair arb_bindings (int_range 0 6))
    (fun (raw, n) ->
      let bs = to_bindings raw in
      let t = trie_of_bindings bs in
      let model = model_of_bindings bs in
      let got, more = Mpt.take_range t ~lo:"" n in
      let expect_n = min n (List.length model) in
      got = List.filteri (fun i _ -> i < expect_n) model
      && more = (List.length model > n))

(* --- point misses: single-key range proofs ------------------------------- *)

(* No key sorts strictly between [k] and [k·0], so the range proof over
   [[k, k·0)] is the point proof: membership, or a miss. *)
let point_hi k = Some (k ^ "0")
let prove_point t k = Mpt.prove_range t ~lo:k ~hi:(point_hi k)
let verify_point ~root k p = Mpt.verify_range ~root ~lo:k ~hi:(point_hi k) p

(* Over the empty interval ["", "") every subtree is out of range, so a
   proof verifies there iff it re-hashes to [root]: a forgery passing this
   is rejected for its range, not for a wrong digest. *)
let rehashes_to ~root p = Mpt.verify_range ~root ~lo:"" ~hi:(Some "") p = Some []

(* The digest of the node at depth [d] on present key [j]'s inclusion walk,
   read off its parent (the root digest at depth 0). *)
let walk_hash t j d =
  if d = 0 then Mpt.root_hash t
  else
    match List.nth (Option.get (Mpt.prove t ~key:j)) (d - 1) with
    | Mpt.Branch_node { children; descend; _ } -> children.(descend)
    | Mpt.Extension_node { child; _ } -> child
    | Mpt.Leaf_node _ -> invalid_arg "walk_hash"

(* Rewrite the entry of a range proof that holds key [k] — the leaf ending
   at [k], or the branch whose value sits at [k]. *)
let rewrite_holder k f proof =
  let rec go q = function
    | Mpt.R_leaf _ as e -> f e
    | Mpt.R_ext { path; child } ->
        Mpt.R_ext { path; child = go (q + String.length path) child }
    | Mpt.R_branch { children; value } as e ->
        if q = String.length k then f e
        else
          let children = Array.copy children in
          children.(Nibble.get k q) <- go (q + 1) children.(Nibble.get k q);
          Mpt.R_branch { children; value }
    | e -> e
  in
  go 0 proof

let holder_hash t k =
  walk_hash t k (List.length (Option.get (Mpt.prove t ~key:k)) - 1)

(* Rewrite the entry of a range proof where absent key [k]'s miss shows —
   an empty slot, a leaf or extension leaving [k]'s path, or the valueless
   branch at [k].  [f] also gets the entry's position and walk depth. *)
let rewrite_gap k f proof =
  let n = String.length k in
  let rec go q d = function
    | Mpt.R_ext { path; child } as e ->
        let m = String.length path in
        if q + m <= n && String.sub k q m = path then
          Mpt.R_ext { path; child = go (q + m) (d + 1) child }
        else f e (String.sub k 0 q) d
    | Mpt.R_branch { children; value } when q < n ->
        let children = Array.copy children in
        children.(Nibble.get k q) <- go (q + 1) (d + 1) children.(Nibble.get k q);
        Mpt.R_branch { children; value }
    | e -> f e (String.sub k 0 q) d
  in
  go 0 0 proof

(* A probe: a random key, or (with [pick]) a key of the trie, an
   extension of one, or its parent prefix. *)
let probe_key bs probe_l pick ~present =
  match pick with
  | Some i when bs <> [] ->
      let j = fst (List.nth bs (i mod List.length bs)) in
      if present then j
      else if i land 1 = 0 || String.length j = 1 then j ^ key_of_list probe_l
      else String.sub j 0 (String.length j - 1)
  | _ -> key_of_list probe_l

let absence_roundtrip =
  QCheck.Test.make ~name:"absence proofs verify (incl. wire roundtrip)" ~count:200
    QCheck.(triple arb_bindings arb_nibble_key (option small_nat))
    (fun (raw, probe_l, pick) ->
      let bs = to_bindings raw in
      let t = trie_of_bindings bs in
      let root = Mpt.root_hash t in
      (* half the probes are keys of the trie, so both outcomes occur *)
      let k = probe_key bs probe_l pick ~present:true in
      let proof = prove_point t k in
      let expect =
        match Mpt.find t ~key:k with None -> [] | Some v -> [ (k, v) ]
      in
      verify_point ~root k proof = Some expect
      && (let w = Wire.writer () in
          Mpt.w_range_proof w proof;
          match Wire.decode (Wire.contents w) Mpt.r_range_proof with
          | Some p' -> verify_point ~root k p' = Some expect
          | None -> false))

let absence_rejects_wrong_boundaries =
  QCheck.Test.make ~name:"absence proof rejects non-adjacent boundaries" ~count:200
    QCheck.(triple arb_bindings arb_nibble_key (option small_nat))
    (fun (raw, probe_l, pick) ->
      let bs = to_bindings raw in
      let t = trie_of_bindings bs in
      let root = Mpt.root_hash t in
      let k = probe_key bs probe_l pick ~present:false in
      QCheck.assume (Mpt.find t ~key:k = None);
      (* the gap's boundary pruned to its genuine digest: the root still
         matches, but the gap is no longer shown *)
      let empty_slot = ref false in
      let pruned =
        rewrite_gap k
          (fun e p d ->
            match e with
            | Mpt.R_zero ->
                empty_slot := true;
                Mpt.R_pruned Hash.zero
            | _ ->
                let j = fst (List.hd (fst (Mpt.take_range t ~lo:p 1))) in
                Mpt.R_pruned (walk_hash t j d))
          (prove_point t k)
      in
      (!empty_slot || rehashes_to ~root pruned)
      && verify_point ~root k pruned = None
      (* genuine point proofs of the trie's keys, replayed for [k], never
         claim a binding at [k] *)
      && List.for_all
           (fun (j, _) ->
             match verify_point ~root k (prove_point t j) with
             | None | Some [] -> true
             | Some _ -> false)
           bs)

let absence_rejects_present_key =
  QCheck.Test.make ~name:"absence proof cannot target a present key" ~count:100
    QCheck.(pair arb_bindings small_nat)
    (fun (raw, i) ->
      let bs = to_bindings raw in
      QCheck.assume (bs <> []);
      let t = trie_of_bindings bs in
      let root = Mpt.root_hash t in
      let k, _ = List.nth bs (i mod List.length bs) in
      let proof = prove_point t k in
      (* two forged "absent" proofs: the holder pruned to its genuine
         digest, and the value at [k] dropped *)
      let pruned = rewrite_holder k (fun _ -> Mpt.R_pruned (holder_hash t k)) proof in
      let dropped =
        rewrite_holder k
          (function
            | Mpt.R_branch b -> Mpt.R_branch { b with value = None }
            | _ -> Mpt.R_zero)
          proof
      in
      rehashes_to ~root pruned
      && verify_point ~root k pruned = None
      && verify_point ~root k dropped = None
      (* a point proof built for an absent extension of [k] must not pass
         as [k]'s miss when replayed against [k] *)
      &&
      let far = k ^ "000000000" in
      Mpt.find t ~key:far = None
      && verify_point ~root k (prove_point t far) <> Some [])

(* --- range proofs -------------------------------------------------------- *)

let range_proof_agrees =
  QCheck.Test.make ~name:"range proof = naive filter (incl. roundtrip)" ~count:150
    QCheck.(triple arb_bindings arb_nibble_key (option arb_nibble_key))
    (fun (raw, lo_l, hi_l) ->
      let bs = to_bindings raw in
      let t = trie_of_bindings bs in
      let model = model_of_bindings bs in
      let root = Mpt.root_hash t in
      let lo = key_of_list lo_l in
      let hi = Option.map key_of_list hi_l in
      let proof = Mpt.prove_range t ~lo ~hi in
      let expect = List.filter (fun (k, _) -> Mpt.key_in_range k ~lo ~hi) model in
      Mpt.verify_range ~root ~lo ~hi proof = Some expect
      &&
      let w = Wire.writer () in
      Mpt.w_range_proof w proof;
      (match Wire.decode (Wire.contents w) Mpt.r_range_proof with
      | Some p' -> Mpt.verify_range ~root ~lo ~hi p' = Some expect
      | None -> false))

let range_proof_rejects_wrong_root =
  QCheck.Test.make ~name:"range proof rejects a stale/foreign root" ~count:80
    arb_bindings
    (fun raw ->
      let bs = to_bindings raw in
      QCheck.assume (bs <> []);
      let t = trie_of_bindings bs in
      let proof = Mpt.prove_range t ~lo:"" ~hi:None in
      (* new insert -> new root: old proof must die *)
      Mpt.insert t ~key:"777777777" (Bytes.of_string "late");
      let root' = Mpt.root_hash t in
      Mpt.verify_range ~root:root' ~lo:"" ~hi:None proof = None)

let range_proof_bitflip =
  QCheck.Test.make ~name:"range proof bit-flips never alter the result" ~count:150
    QCheck.(triple arb_bindings small_nat small_nat)
    (fun (raw, byte_seed, bit) ->
      let bs = to_bindings raw in
      QCheck.assume (bs <> []);
      let t = trie_of_bindings bs in
      let root = Mpt.root_hash t in
      let proof = Mpt.prove_range t ~lo:"" ~hi:None in
      let honest = Mpt.verify_range ~root ~lo:"" ~hi:None proof in
      let enc =
        let w = Wire.writer () in
        Mpt.w_range_proof w proof;
        Wire.contents w
      in
      let enc = Bytes.copy enc in
      let i = byte_seed mod Bytes.length enc in
      Bytes.set enc i
        (Char.chr (Char.code (Bytes.get enc i) lxor (1 lsl (bit mod 8))));
      match Wire.decode enc Mpt.r_range_proof with
      | None -> true
      | Some p' -> (
          match Mpt.verify_range ~root ~lo:"" ~hi:None p' with
          | None -> true
          | Some got -> Some got = honest))

(* --- ccMPT satellite: proof codec + bounded jsns ------------------------- *)

let ccmpt_codec_roundtrip () =
  let acc = Ledger_merkle.Accumulator.create () in
  let cc = Ccmpt.create acc in
  for jsn = 0 to 40 do
    ignore
      (Ledger_merkle.Accumulator.append acc
         (Hash.digest_string ("journal " ^ string_of_int jsn)));
    Ccmpt.add cc ~clue:(if jsn mod 3 = 0 then "alice" else "bob") ~jsn
  done;
  let proof = Option.get (Ccmpt.prove_clue cc ~clue:"alice") in
  let w = Wire.writer () in
  Ccmpt.w_proof w proof;
  let enc = Wire.contents w in
  (match Wire.decode enc Ccmpt.r_proof with
  | None -> Alcotest.fail "ccmpt proof codec roundtrip failed"
  | Some p' ->
      check Alcotest.bool "roundtripped proof verifies" true
        (Ccmpt.verify_clue cc ~clue:"alice" ~mpt_root:(Ccmpt.root_hash cc)
           ~acc_root:(Ledger_merkle.Accumulator.root acc) p'));
  (* bit-flips: decode failure or verification failure, never silent
     acceptance of altered lineage *)
  let flips = ref 0 in
  for i = 0 to Bytes.length enc - 1 do
    let mut = Bytes.copy enc in
    Bytes.set mut i (Char.chr (Char.code (Bytes.get mut i) lxor 0x10));
    match Wire.decode mut Ccmpt.r_proof with
    | None -> incr flips
    | Some p' ->
        if
          not
            (Ccmpt.verify_clue cc ~clue:"alice" ~mpt_root:(Ccmpt.root_hash cc)
               ~acc_root:(Ledger_merkle.Accumulator.root acc) p')
          || p' <> proof
        then incr flips
  done;
  check Alcotest.bool "every bit-flip detected" true (!flips = Bytes.length enc)

let ccmpt_slice_agrees =
  QCheck.Test.make ~name:"ccmpt jsns_slice = List slice of jsns" ~count:100
    QCheck.(triple (int_range 0 30) (int_range 0 12) (int_range 0 12))
    (fun (n, offset, limit) ->
      let acc = Ledger_merkle.Accumulator.create () in
      let cc = Ccmpt.create acc in
      for jsn = 0 to n - 1 do
        Ccmpt.add cc ~clue:"k" ~jsn
      done;
      let all = Ccmpt.jsns cc ~clue:"k" in
      let expect =
        List.filteri (fun i _ -> i >= offset && i < offset + limit) all
      in
      Ccmpt.jsns_slice cc ~clue:"k" ~offset ~limit = expect
      && all = List.init n (fun i -> i))

(* --- query layer: differential against a naive filter -------------------- *)

let clue_pool =
  [| "acct-alpha"; "acct-beta"; "acct-gamma"; "acct-delta"; "bank-a"; "bank-b";
     "zeta"; "a"; "ab"; "abc"; "abcd" |]

let arb_stream =
  QCheck.(list_of_size (Gen.int_range 0 60) (int_range 0 (Array.length clue_pool - 1)))

(* naive reference: every (clue, jsn, tx) ever appended *)
let naive_filter stream ~spec ~window =
  let matches clue = Range_query.spec_matches spec clue in
  let in_window jsn =
    match window with
    | None -> true
    | Some { Range_query.t1; t2 } -> jsn >= t1 && jsn <= t2
  in
  List.filter (fun (clue, jsn, _tx) -> matches clue && in_window jsn) stream
  |> List.fold_left
       (fun acc (clue, jsn, tx) ->
         let cur = try List.assoc clue acc with Not_found -> [] in
         (clue, (jsn, tx) :: cur) :: List.remove_assoc clue acc)
       []
  |> List.map (fun (clue, entries) -> (clue, List.rev entries))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let index_of_stream stream =
  let idx = Query_index.create () in
  List.iter (fun (clue, jsn, tx) -> Query_index.add idx ~clue ~jsn ~tx) stream;
  idx

let mk_stream picks =
  List.mapi
    (fun jsn pick ->
      (clue_pool.(pick), jsn, Hash.digest_string ("tx" ^ string_of_int jsn)))
    picks

let run_paged idx ~spec ?window ~page_size () =
  let rec go after acc n =
    if n > 1000 then Alcotest.fail "pagination did not terminate";
    let pg = Range_query.page idx ~spec ?window ?after ~page_size () in
    match pg.Range_query.cursor with
    | Some c -> go (Some c) (pg :: acc) (n + 1)
    | None -> List.rev (pg :: acc)
  in
  go None [] 0

let result_entries rows =
  List.map (fun r -> (r.Range_query.r_clue, r.Range_query.r_entries)) rows
  |> List.filter (fun (_, es) -> es <> [])

let specs_under_test =
  [ Range_query.Prefix ""; Range_query.Prefix "acct-"; Range_query.Prefix "ab";
    Range_query.Prefix "acct-alpha"; Range_query.Prefix "nope";
    Range_query.Between { lo = "acct-beta"; hi = Some "bank-b" };
    Range_query.Between { lo = "a"; hi = None };
    Range_query.Between { lo = "b"; hi = Some "b" } ]

let paged_query_differential =
  QCheck.Test.make ~name:"verified paged query = naive filter" ~count:60
    QCheck.(triple arb_stream (int_range 1 5) (option (pair small_nat small_nat)))
    (fun (picks, page_size, win) ->
      (* shrinking can propose ints below the generator's range *)
      QCheck.assume (page_size >= 1);
      let stream = mk_stream picks in
      let idx = index_of_stream stream in
      let root = Query_index.root idx in
      let window =
        Option.map
          (fun (a, b) -> { Range_query.t1 = min a b; t2 = max a b })
          win
      in
      List.for_all
        (fun spec ->
          let pages = run_paged idx ~spec ?window ~page_size () in
          match Range_query.verify_pages ~root ~spec ?window ~page_size pages with
          | Error e -> QCheck.Test.fail_reportf "honest query rejected: %s" e
          | Ok rows ->
              let naive = naive_filter stream ~spec ~window in
              result_entries rows = naive)
        specs_under_test)

let wire_roundtrip_pages =
  QCheck.Test.make ~name:"page wire codec roundtrips and verifies" ~count:40
    QCheck.(pair arb_stream (int_range 1 4))
    (fun (picks, page_size) ->
      let stream = mk_stream picks in
      let idx = index_of_stream stream in
      let root = Query_index.root idx in
      let spec = Range_query.Prefix "" in
      let pages = run_paged idx ~spec ~page_size () in
      let pages' =
        List.map
          (fun pg ->
            match Range_query.decode_page (Range_query.encode_page pg) with
            | Some p -> p
            | None -> QCheck.Test.fail_report "page codec roundtrip failed")
          pages
      in
      match Range_query.verify_pages ~root ~spec ~page_size pages' with
      | Ok _ -> true
      | Error e -> QCheck.Test.fail_reportf "roundtripped pages rejected: %s" e)

(* --- adversarial gates --------------------------------------------------- *)

(* A fixed, rich scenario used by all tampering tests. *)
let adversarial_fixture () =
  let stream =
    mk_stream
      [ 0; 1; 2; 3; 4; 5; 0; 1; 2; 0; 3; 4; 0; 1; 0; 2; 5; 0; 1; 2; 3; 0 ]
  in
  let idx = index_of_stream stream in
  (stream, idx, Query_index.root idx)

let expect_reject name outcome =
  match outcome with
  | Ok _ -> Alcotest.failf "%s: tampered result accepted" name
  | Error _ -> ()

let tamper_rows f pg = { pg with Range_query.rows = f pg.Range_query.rows }

let adversarial_row_tampering () =
  let _, idx, root = adversarial_fixture () in
  let spec = Range_query.Prefix "acct-" in
  let page_size = 10 in
  let pg = Range_query.page idx ~spec ~page_size () in
  let verify p = Range_query.verify_page ~root ~spec ~page_size p in
  (match verify pg with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "honest page rejected: %s" e);
  (* omitted row *)
  expect_reject "omit row" (verify (tamper_rows List.tl pg));
  (* duplicated (extra) row *)
  expect_reject "extra row"
    (verify (tamper_rows (fun rows -> List.hd rows :: rows) pg));
  (* altered row: drop the newest entry and adjust the count *)
  expect_reject "drop newest entry"
    (verify
       (tamper_rows
          (fun rows ->
            let r = List.hd rows in
            let shorter =
              List.filteri
                (fun i _ -> i < List.length r.Range_query.entries - 1)
                r.Range_query.entries
            in
            { r with Range_query.entries = shorter; total = r.Range_query.total - 1 }
            :: List.tl rows)
          pg));
  (* altered row: swap an entry's tx hash *)
  expect_reject "swap tx hash"
    (verify
       (tamper_rows
          (fun rows ->
            let r = List.hd rows in
            let entries =
              match r.Range_query.entries with
              | (jsn, _) :: rest -> (jsn, Hash.digest_string "forged") :: rest
              | [] -> []
            in
            { r with Range_query.entries } :: List.tl rows)
          pg));
  (* altered row: renumber a jsn *)
  expect_reject "renumber jsn"
    (verify
       (tamper_rows
          (fun rows ->
            let r = List.hd rows in
            let entries =
              match r.Range_query.entries with
              | (jsn, tx) :: rest -> (jsn + 1, tx) :: rest
              | [] -> []
            in
            { r with Range_query.entries } :: List.tl rows)
          pg));
  (* stale root: answer predates the latest append *)
  Query_index.add idx ~clue:"acct-alpha" ~jsn:10_000 ~tx:(Hash.digest_string "new");
  expect_reject "stale root"
    (Range_query.verify_page ~root:(Query_index.root idx) ~spec ~page_size pg)

let adversarial_window_tampering () =
  let _, idx, root = adversarial_fixture () in
  let spec = Range_query.Prefix "acct-alpha" in
  let window = { Range_query.t1 = 9; t2 = 15 } in
  let page_size = 4 in
  let pg = Range_query.page idx ~spec ~window ~page_size () in
  (match Range_query.verify_page ~root ~spec ~window ~page_size pg with
  | Ok ([ row ], None) ->
      let naive =
        List.filter (fun jsn -> jsn >= 9 && jsn <= 15)
          (Query_index.slice idx ~clue:"acct-alpha" ~offset:0 ~limit:max_int
          |> List.map fst)
      in
      check (Alcotest.list Alcotest.int) "windowed entries"
        naive
        (List.map fst row.Range_query.r_entries)
  | Ok _ -> Alcotest.fail "expected exactly one windowed row"
  | Error e -> Alcotest.failf "honest windowed page rejected: %s" e);
  (* hide the boundary witness: pretend the window suffix starts later *)
  expect_reject "hidden epoch before t1"
    (Range_query.verify_page ~root ~spec ~window ~page_size
       (tamper_rows
          (fun rows ->
            let r = List.hd rows in
            match r.Range_query.entries with
            | (jsn, tx) :: rest ->
                {
                  r with
                  Range_query.prefix_count = r.Range_query.prefix_count + 1;
                  prefix_digest =
                    Query_index.chain_step r.Range_query.prefix_digest jsn tx;
                  entries = rest;
                }
                :: List.tl rows
            | [] -> rows)
          pg));
  (* unwindowed queries must carry full lists *)
  expect_reject "suffix without window"
    (Range_query.verify_page ~root ~spec ~page_size pg)

let adversarial_page_tampering () =
  let _, idx, root = adversarial_fixture () in
  let spec = Range_query.Prefix "" in
  let page_size = 2 in
  let pages = run_paged idx ~spec ~page_size () in
  check Alcotest.bool "fixture paginates" true (List.length pages >= 3);
  (match Range_query.verify_pages ~root ~spec ~page_size pages with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "honest pages rejected: %s" e);
  let verify ps = Range_query.verify_pages ~root ~spec ~page_size ps in
  (* drop a middle page *)
  expect_reject "drop middle page"
    (verify (List.filteri (fun i _ -> i <> 1) pages));
  (* drop the final page *)
  expect_reject "truncate pages"
    (verify (List.filteri (fun i _ -> i < List.length pages - 1) pages));
  (* re-order pages *)
  expect_reject "re-order pages"
    (verify
       (match pages with
       | a :: b :: rest -> b :: a :: rest
       | _ -> assert false));
  (* duplicate a page *)
  expect_reject "duplicate page"
    (verify (List.hd pages :: pages));
  (* empty scan *)
  expect_reject "no pages" (verify [])

(* --- end to end: ledger, Service envelope, sharded scatter/merge ---------- *)

let build_ledger n =
  let clock = Clock.create () in
  let config =
    { Ledger.default_config with name = "query-e2e"; block_size = 8;
      crypto = Crypto_profile.default_simulated }
  in
  let ledger = Ledger.create ~config ~clock () in
  let user, key =
    Ledger.new_member ledger ~name:"u" ~role:Roles.Regular_user
  in
  let stream = ref [] in
  for i = 0 to n - 1 do
    Clock.advance_ms clock 10.;
    let clue = clue_pool.(i mod Array.length clue_pool) in
    let r =
      Ledger.append ledger ~member:user ~priv:key ~clues:[ clue ]
        (Bytes.of_string (Printf.sprintf "p%d" i))
    in
    stream := (clue, r.Receipt.jsn, r.Receipt.tx_hash) :: !stream
  done;
  (ledger, List.rev !stream)

(* the query root is what a replica derives by replaying committed journal
   history — the trust-anchor contract of DESIGN.md §16 *)
let query_root_replays () =
  let ledger, stream = build_ledger 30 in
  let replayed = Query_index.create () in
  List.iter
    (fun (clue, jsn, tx) -> Query_index.add replayed ~clue ~jsn ~tx)
    stream;
  check Alcotest.bool "replayed root equals the ledger's" true
    (Hash.equal (Ledger.query_root ledger) (Query_index.root replayed))

let service_end_to_end () =
  let ledger, stream = build_ledger 40 in
  let root = Ledger.query_root ledger in
  let page_size = 3 in
  List.iter
    (fun spec ->
      let rec fetch after acc guard =
        if guard > 100 then Alcotest.fail "pagination did not terminate"
        else
          let reqb =
            Service.Client.make_query_page ~spec ?after ~page_size ()
          in
          match Service.Client.parse (Service.handle ledger reqb) with
          | Some (Service.Query_page_r { page; query_root; _ }) -> (
              check Alcotest.bool "served root is the ledger's" true
                (Hash.equal query_root root);
              match page.Range_query.cursor with
              | Some c -> fetch (Some c) (page :: acc) (guard + 1)
              | None -> List.rev (page :: acc))
          | _ -> Alcotest.fail "unexpected service response"
      in
      let pages = fetch None [] 0 in
      match Range_query.verify_pages ~root ~spec ~page_size pages with
      | Error e -> Alcotest.failf "wire pages rejected: %s" e
      | Ok rows ->
          let naive = naive_filter stream ~spec ~window:None in
          if result_entries rows <> naive then
            Alcotest.fail "wire differential mismatch")
    specs_under_test

let verify_api_query_target () =
  let ledger, _ = build_ledger 30 in
  let spec = Range_query.Prefix "a" in
  let window = Some { Range_query.t1 = 5; t2 = 20 } in
  let target = Verify_api.Query_complete { spec; window; page_size = 2 } in
  let o1 = Verify_api.verify ledger ~level:Verify_api.Client target in
  check Alcotest.bool "client level ok" true o1.Verify_api.ok;
  let o2 = Verify_api.verify ledger ~level:Verify_api.Client target in
  check Alcotest.bool "repeated verdict ok" true o2.Verify_api.ok;
  let o3 = Verify_api.verify ledger ~level:Verify_api.Server target in
  check Alcotest.bool "server level ok" true o3.Verify_api.ok

let fleet_shards = 3

let build_fleet n =
  let module SL = Ledger_shard.Sharded_ledger in
  let clock = Clock.create () in
  let config =
    {
      SL.base =
        { Ledger.default_config with name = "query-fleet"; block_size = 8;
          crypto = Crypto_profile.default_simulated };
      shards = fleet_shards;
    }
  in
  let fleet = SL.create ~config ~clock () in
  let user, key = SL.new_member fleet ~name:"u" ~role:Roles.Regular_user in
  let counts = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    Clock.advance_ms clock 10.;
    let clue = clue_pool.(i mod Array.length clue_pool) in
    ignore
      (SL.append fleet ~member:user ~priv:key ~clues:[ clue ]
         (Bytes.of_string (Printf.sprintf "p%d" i)));
    Hashtbl.replace counts clue
      (1 + Option.value (Hashtbl.find_opt counts clue) ~default:0)
  done;
  (fleet, counts)

let sharded_scatter_merge () =
  let module SL = Ledger_shard.Sharded_ledger in
  let module SS = Ledger_shard.Sharded_service in
  let module SQ = Ledger_shard.Sharded_query in
  let fleet, counts = build_fleet 40 in
  let sealed =
    match SL.seal_epoch fleet with
    | Ok s -> s
    | Error e -> Alcotest.failf "seal refused: %s" e
  in
  let page_size = 2 in
  List.iter
    (fun spec ->
      let reqb = SS.Client.make_query_scatter ~spec ~page_size () in
      match SS.Client.parse (SS.handle fleet reqb) with
      | Some (SS.Query_scatter_r sc) -> (
          (* the scatter must survive its own wire codec *)
          let sc =
            match SQ.decode_scatter (SQ.encode_scatter sc) with
            | Some sc -> sc
            | None -> Alcotest.fail "scatter codec roundtrip failed"
          in
          match
            SQ.merge ~sealed ~shards:fleet_shards ~spec ~page_size sc
          with
          | Error e -> Alcotest.failf "merge rejected: %s" e
          | Ok rows ->
              (* each matching clue appears exactly once, globally ordered,
                 with its fleet-wide total *)
              let expect =
                Hashtbl.fold
                  (fun c n acc ->
                    if Range_query.spec_matches spec c then (c, n) :: acc
                    else acc)
                  counts []
                |> List.sort compare
              in
              let got =
                List.map
                  (fun (r : Range_query.result_row) ->
                    (r.Range_query.r_clue, r.Range_query.r_total))
                  rows
              in
              check
                (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
                "fleet-wide clue totals" expect got)
      | _ -> Alcotest.fail "unexpected scatter response")
    specs_under_test

let sharded_adversarial () =
  let module SL = Ledger_shard.Sharded_ledger in
  let module SQ = Ledger_shard.Sharded_query in
  let fleet, _ = build_fleet 40 in
  let sealed =
    match SL.seal_epoch fleet with
    | Ok s -> s
    | Error e -> Alcotest.failf "seal refused: %s" e
  in
  let spec = Range_query.Prefix "" in
  let page_size = 3 in
  let sc = SQ.scatter fleet ~spec ~page_size () in
  let merge ?(sealed = sealed) ?(shards = fleet_shards) sc =
    SQ.merge ~sealed ~shards ~spec ~page_size sc
  in
  (match merge sc with
  | Ok rows -> check Alcotest.bool "honest merge has rows" true (rows <> [])
  | Error e -> Alcotest.failf "honest merge rejected: %s" e);
  let answers = sc.SQ.answers in
  check Alcotest.int "fixture fleet width" fleet_shards (List.length answers);
  (* a dropped shard answer cannot pass as a complete result *)
  expect_reject "drop a shard answer"
    (merge { sc with SQ.answers = List.tl answers });
  (* one shard answering twice, shadowing another *)
  expect_reject "shard answers twice"
    (merge
       { sc with
         SQ.answers =
           (match answers with
           | a :: _ :: rest -> a :: a :: rest
           | _ -> assert false) });
  (* swapped shard ids: pages still verify against their roots, but the
     placement re-check sees clues answered by a non-owner *)
  expect_reject "swap shard ids"
    (merge
       { sc with
         SQ.answers =
           (match answers with
           | a :: b :: rest ->
               { a with SQ.shard = b.SQ.shard }
               :: { b with SQ.shard = a.SQ.shard }
               :: rest
           | _ -> assert false) });
  (* foreign query root *)
  expect_reject "foreign query root"
    (merge
       { sc with
         SQ.answers =
           (match answers with
           | a :: b :: rest ->
               { a with SQ.query_root = b.SQ.query_root } :: b :: rest
           | _ -> assert false) });
  (* claimed fleet size disagrees with the client's topology *)
  expect_reject "wrong fleet width" (merge ~shards:(fleet_shards + 1) sc);
  (* epoch pinning: an answer from after the seal is refused under ~sealed *)
  let user2, key2 = SL.new_member fleet ~name:"late" ~role:Roles.Regular_user in
  ignore
    (SL.append fleet ~member:user2 ~priv:key2 ~clues:[ "zeta" ]
       (Bytes.of_string "post-seal"));
  let sc2 = SQ.scatter fleet ~spec ~page_size () in
  expect_reject "post-seal answer pinned to old epoch" (merge sc2)

(* Every answer a query index gives about [clues], as one digest: root,
   counts, every slice, every chain digest, the first entry at or after
   every jsn in range, and each clue's point proof. *)
let index_answers qi clues ~max_jsn =
  let w = Wire.writer () in
  Wire.w_hash w (Query_index.root qi);
  Wire.w_int w (Query_index.cardinal qi);
  Wire.w_int w (Query_index.entries qi);
  List.iter
    (fun clue ->
      let n = Query_index.clue_count qi ~clue in
      Wire.w_int w n;
      for offset = 0 to n do
        List.iter
          (fun (jsn, tx) -> Wire.w_int w jsn; Wire.w_hash w tx)
          (Query_index.slice qi ~clue ~offset ~limit:3)
      done;
      for k = 0 to n do
        Wire.w_hash w (Query_index.chain_at qi ~clue k)
      done;
      for jsn = 0 to max_jsn + 1 do
        Wire.w_int w (Query_index.first_at_or_after qi ~clue jsn)
      done;
      match Query_index.prove_clue qi ~clue with
      | None -> Wire.w_u8 w 0
      | Some p -> Wire.w_u8 w 1; Mpt.w_proof w p)
    clues;
  Hash.to_hex (Hash.digest_bytes (Wire.contents w))

(* A frozen index shares its clues' entry arrays with the writer, which
   writes past every pinned count.  Freeze after each of 40 adds, then
   add far enough to regrow each entry array several times (4, 8, ...,
   512): every frozen view must still give the answers it gave when it
   was taken. *)
let frozen_view_stays_put () =
  let qi = Query_index.create () in
  let clues = [ "a"; "ab"; "b"; "c" ] in
  let jsn = ref 0 in
  let add clue =
    jsn := !jsn + 2;
    Query_index.add qi ~clue ~jsn:!jsn
      ~tx:(Hash.digest_string (string_of_int !jsn))
  in
  let views =
    List.init 40 (fun step ->
        add "a";
        if step mod 3 = 0 then add "ab";
        if step = 5 then add "b";
        let view = Query_index.freeze qi in
        (step, view, !jsn, index_answers view clues ~max_jsn:!jsn))
  in
  for i = 1 to 300 do
    add "a";
    add "ab";
    add "b";
    if i mod 2 = 0 then add "c"
  done;
  Alcotest.(check int) "live index grew" 340 (Query_index.clue_count qi ~clue:"a");
  List.iter
    (fun (step, view, max_jsn, before) ->
      Alcotest.(check string)
        (Printf.sprintf "view after step %d" step)
        before
        (index_answers view clues ~max_jsn))
    views

let suite =
  [
    qcheck ordered_iteration_agrees;
    qcheck take_range_agrees;
    qcheck absence_roundtrip;
    qcheck absence_rejects_wrong_boundaries;
    qcheck absence_rejects_present_key;
    qcheck range_proof_agrees;
    qcheck range_proof_rejects_wrong_root;
    qcheck range_proof_bitflip;
    tc "ccmpt proof codec + bit-flips" `Quick ccmpt_codec_roundtrip;
    qcheck ccmpt_slice_agrees;
    qcheck paged_query_differential;
    qcheck wire_roundtrip_pages;
    tc "adversarial: row tampering" `Quick adversarial_row_tampering;
    tc "adversarial: window tampering" `Quick adversarial_window_tampering;
    tc "adversarial: page tampering" `Quick adversarial_page_tampering;
    tc "e2e: query root = journal replay" `Quick query_root_replays;
    tc "e2e: Service envelope differential" `Quick service_end_to_end;
    tc "e2e: Verify API target + cache" `Quick verify_api_query_target;
    tc "e2e: sharded scatter/merge differential" `Quick sharded_scatter_merge;
    tc "e2e: sharded adversarial gates" `Quick sharded_adversarial;
    tc "frozen view stays put under further adds" `Quick
      frozen_view_stays_put;
  ]
