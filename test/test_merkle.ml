(* Tests for the Merkle structures: proofs, classic tree, tim accumulator,
   Shrubs, fam, bim and range proofs. *)

open Ledger_crypto
open Ledger_merkle

let tc = Alcotest.test_case
let leaf i = Hash.digest_string ("leaf" ^ string_of_int i)
let qcheck = QCheck_alcotest.to_alcotest

(* --- Proof --------------------------------------------------------------- *)

let test_proof_apply () =
  let l = leaf 0 and r = leaf 1 in
  let root = Hash.combine l r in
  Alcotest.(check bool) "left leaf" true
    (Proof.verify ~leaf:l ~root [ { Proof.dir = Proof.Right; digest = r } ]);
  Alcotest.(check bool) "right leaf" true
    (Proof.verify ~leaf:r ~root [ { Proof.dir = Proof.Left; digest = l } ]);
  Alcotest.(check bool) "direction matters" false
    (Proof.verify ~leaf:l ~root [ { Proof.dir = Proof.Left; digest = r } ])

let test_node_set_digest () =
  let a = [ leaf 1; leaf 2 ] and b = [ leaf 2; leaf 1 ] in
  Alcotest.(check bool) "order-sensitive" false
    (Hash.equal (Proof.node_set_digest a) (Proof.node_set_digest b));
  Alcotest.(check bool) "equal sets" true (Proof.node_set_equal a a);
  Alcotest.(check bool) "unequal sets" false (Proof.node_set_equal a b)

(* --- Merkle tree / accumulator ------------------------------------------- *)

let prop_accumulator_sound =
  QCheck.Test.make ~name:"accumulator proofs verify at any size" ~count:60
    (QCheck.int_range 1 200) (fun n ->
      let acc = Accumulator.create () in
      for i = 0 to n - 1 do
        ignore (Accumulator.append acc (leaf i))
      done;
      let root = Accumulator.root acc in
      List.for_all
        (fun i ->
          Accumulator.verify ~root ~leaf:(leaf i) (Accumulator.prove acc i))
        (List.init n Fun.id))

let prop_accumulator_rejects_fakes =
  QCheck.Test.make ~name:"accumulator rejects wrong leaves" ~count:60
    (QCheck.int_range 2 150) (fun n ->
      let acc = Accumulator.create () in
      for i = 0 to n - 1 do
        ignore (Accumulator.append acc (leaf i))
      done;
      let root = Accumulator.root acc in
      not
        (Accumulator.verify ~root ~leaf:(leaf (n + 7)) (Accumulator.prove acc 0)))

let test_accumulator_proof_growth () =
  (* tim proof length grows with ledger size — the paper's core claim *)
  let acc = Accumulator.create () in
  for i = 0 to (1 lsl 10) - 1 do
    ignore (Accumulator.append acc (leaf i))
  done;
  let len_small = Proof.length (Accumulator.prove acc 0) in
  for i = 1 lsl 10 to (1 lsl 14) - 1 do
    ignore (Accumulator.append acc (leaf i))
  done;
  let len_big = Proof.length (Accumulator.prove acc 0) in
  Alcotest.(check bool) "proof grows" true (len_big > len_small);
  Alcotest.(check int) "log-size proof" 14 len_big

let test_merkle_tree () =
  let leaves = List.init 13 leaf in
  let t = Merkle_tree.build leaves in
  let root = Merkle_tree.root t in
  List.iteri
    (fun i l ->
      Alcotest.(check bool)
        (Printf.sprintf "leaf %d" i)
        true
        (Merkle_tree.verify ~root ~leaf:l (Merkle_tree.prove t i)))
    leaves;
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Merkle_tree.build: empty") (fun () ->
      ignore (Merkle_tree.build []))

(* --- Shrubs --------------------------------------------------------------- *)

let test_shrubs_peaks () =
  let s = Shrubs.create () in
  for i = 0 to 10 do
    ignore (Shrubs.append s (leaf i))
  done;
  (* 11 = 8 + 2 + 1 *)
  Alcotest.(check int) "peak count" 3 (List.length (Shrubs.peaks s));
  Alcotest.(check int) "size" 11 (Shrubs.size s)

let test_shrubs_bounded () =
  let s = Shrubs.create ~height:3 () in
  Alcotest.(check (option int)) "capacity" (Some 8) (Shrubs.capacity s);
  for i = 0 to 7 do
    ignore (Shrubs.append s (leaf i))
  done;
  Alcotest.(check bool) "full" true (Shrubs.is_full s);
  let root = Shrubs.root s in
  Alcotest.(check int) "single peak" 1 (List.length (Shrubs.peaks s));
  Alcotest.(check bool) "root is the peak" true
    (Hash.equal root (List.hd (Shrubs.peaks s)));
  Alcotest.check_raises "append beyond capacity"
    (Invalid_argument "Shrubs.append: tree is full") (fun () ->
      ignore (Shrubs.append s (leaf 8)))

let prop_shrubs_proofs =
  QCheck.Test.make ~name:"shrubs node-set proofs verify" ~count:50
    (QCheck.int_range 1 120) (fun n ->
      let s = Shrubs.create () in
      for i = 0 to n - 1 do
        ignore (Shrubs.append s (leaf i))
      done;
      let c = Shrubs.commitment s in
      List.for_all
        (fun i -> Shrubs.verify ~commitment:c ~leaf:(leaf i) (Shrubs.prove s i))
        (List.init n Fun.id))

let test_shrubs_rejects_stale_commitment () =
  let s = Shrubs.create () in
  for i = 0 to 9 do
    ignore (Shrubs.append s (leaf i))
  done;
  let stale = Shrubs.commitment s in
  ignore (Shrubs.append s (leaf 10));
  let p = Shrubs.prove s 3 in
  Alcotest.(check bool) "stale commitment fails" false
    (Shrubs.verify ~commitment:stale ~leaf:(leaf 3) p);
  Alcotest.(check bool) "fresh commitment passes" true
    (Shrubs.verify ~commitment:(Shrubs.commitment s) ~leaf:(leaf 3) p)

(* --- fam ------------------------------------------------------------------ *)

let test_fam_epoch_arithmetic () =
  let f = Fam.create ~delta:3 in
  for i = 0 to 29 do
    ignore (Fam.append f (leaf i))
  done;
  (* epoch 0 holds 8 journals, later epochs 7 each (merged leaf at pos 0) *)
  Alcotest.(check (pair int int)) "jsn 0" (0, 0) (Fam.epoch_of_jsn f 0);
  Alcotest.(check (pair int int)) "jsn 7" (0, 7) (Fam.epoch_of_jsn f 7);
  Alcotest.(check (pair int int)) "jsn 8" (1, 1) (Fam.epoch_of_jsn f 8);
  Alcotest.(check (pair int int)) "jsn 14" (1, 7) (Fam.epoch_of_jsn f 14);
  Alcotest.(check (pair int int)) "jsn 15" (2, 1) (Fam.epoch_of_jsn f 15);
  Alcotest.(check int) "epochs" 5 (Fam.epoch_count f)

let prop_fam_epoch_of_jsn_bijective =
  QCheck.Test.make ~name:"fam epoch arithmetic is dense and ordered" ~count:30
    (QCheck.pair (QCheck.int_range 1 6) (QCheck.int_range 1 300))
    (fun (delta, n) ->
      let f = Fam.create ~delta in
      for i = 0 to n - 1 do
        ignore (Fam.append f (leaf i))
      done;
      let ok = ref true in
      let prev = ref (-1, -1) in
      for jsn = 0 to n - 1 do
        let e, pos = Fam.epoch_of_jsn f jsn in
        (* positions advance strictly within an epoch; epochs advance by 1 *)
        let pe, pp = !prev in
        if e = pe then ok := !ok && pos = pp + 1
        else ok := !ok && e = pe + 1 && (pos = 0 || pos = 1);
        ok := !ok && Hash.equal (Fam.leaf f jsn) (leaf jsn);
        prev := (e, pos)
      done;
      !ok)

let prop_fam_proofs =
  QCheck.Test.make ~name:"fam chained proofs verify for all jsns" ~count:20
    (QCheck.pair (QCheck.int_range 2 5) (QCheck.int_range 1 200))
    (fun (delta, n) ->
      let f = Fam.create ~delta in
      for i = 0 to n - 1 do
        ignore (Fam.append f (leaf i))
      done;
      let c = Fam.commitment f in
      List.for_all
        (fun i -> Fam.verify ~commitment:c ~leaf:(leaf i) (Fam.prove f i))
        (List.init n Fun.id))

let prop_fam_rejects_fakes =
  QCheck.Test.make ~name:"fam rejects forged leaves" ~count:30
    (QCheck.int_range 1 150) (fun n ->
      let f = Fam.create ~delta:3 in
      for i = 0 to n - 1 do
        ignore (Fam.append f (leaf i))
      done;
      let c = Fam.commitment f in
      not (Fam.verify ~commitment:c ~leaf:(leaf (n + 3)) (Fam.prove f 0)))

let test_fam_anchored () =
  let f = Fam.create ~delta:3 in
  for i = 0 to 99 do
    ignore (Fam.append f (leaf i))
  done;
  let anchor = Fam.make_anchor f in
  Alcotest.(check int) "anchor covers 100" 100 (Fam.anchor_size anchor);
  for i = 100 to 129 do
    ignore (Fam.append f (leaf i))
  done;
  let c = Fam.commitment f in
  let sealed = ref 0 and beyond = ref 0 in
  for i = 0 to 129 do
    let p = Fam.prove_anchored f anchor i in
    (match p with
    | Fam.Within_sealed _ -> incr sealed
    | Fam.Beyond_anchor _ -> incr beyond);
    Alcotest.(check bool)
      (Printf.sprintf "anchored jsn %d" i)
      true
      (Fam.verify_anchored anchor ~current_commitment:c ~leaf:(leaf i) p)
  done;
  (* anchored proofs for sealed epochs are O(delta), not chained *)
  Alcotest.(check bool) "most proofs are sealed-epoch" true (!sealed > 90);
  (* sealed-epoch proof is short *)
  (match Fam.prove_anchored f anchor 0 with
  | Fam.Within_sealed { path; _ } ->
      Alcotest.(check int) "O(delta) path" 3 (Proof.length path)
  | Fam.Beyond_anchor _ -> Alcotest.fail "expected sealed proof")

let test_fam_anchored_rejects_cross_epoch () =
  let f = Fam.create ~delta:3 in
  for i = 0 to 63 do
    ignore (Fam.append f (leaf i))
  done;
  let anchor = Fam.make_anchor f in
  let c = Fam.commitment f in
  (* proof for jsn 0 must not validate leaf of jsn 9 (different epoch) *)
  let p = Fam.prove_anchored f anchor 0 in
  Alcotest.(check bool) "cross-leaf rejected" false
    (Fam.verify_anchored anchor ~current_commitment:c ~leaf:(leaf 9) p)

let test_fam_purge_epochs () =
  let f = Fam.create ~delta:3 in
  for i = 0 to 99 do
    ignore (Fam.append f (leaf i))
  done;
  let before = Fam.stored_digests f in
  Fam.purge_epochs_before f 5;
  let after = Fam.stored_digests f in
  Alcotest.(check bool) "digests reclaimed" true (after < before);
  (* journals after the purge point still provable *)
  let c = Fam.commitment f in
  Alcotest.(check bool) "late journal verifies" true
    (Fam.verify ~commitment:c ~leaf:(leaf 90) (Fam.prove f 90));
  (* sealed roots survive *)
  Alcotest.(check bool) "sealed root available" true
    (Hash.equal (Fam.sealed_epoch_root f 0) (Fam.sealed_epoch_root f 0))

(* --- bim ------------------------------------------------------------------ *)

let test_bim_spv () =
  let b = Bim.create ~block_size:16 in
  for i = 0 to 99 do
    ignore (Bim.append b ~timestamp:(Int64.of_int i) (leaf i))
  done;
  Bim.flush b;
  Alcotest.(check int) "blocks" 7 (Bim.block_count b);
  let headers = Array.of_list (Bim.headers b) in
  Alcotest.(check bool) "chain valid" true (Bim.verify_header_chain (Bim.headers b));
  for i = 0 to 99 do
    let p = Bim.prove b i in
    Alcotest.(check bool) (Printf.sprintf "spv %d" i) true
      (Bim.verify ~headers ~leaf:(leaf i) p)
  done;
  (* header storage is O(blocks) *)
  Alcotest.(check int) "header bytes" (7 * 80) (Bim.header_bytes b)

let test_bim_detects_header_tamper () =
  let b = Bim.create ~block_size:8 in
  for i = 0 to 31 do
    ignore (Bim.append b (leaf i))
  done;
  let headers = Bim.headers b in
  let tampered =
    List.mapi
      (fun i h ->
        if i = 1 then { h with Bim.merkle_root = leaf 999 } else h)
      headers
  in
  Alcotest.(check bool) "tampered chain detected" false
    (Bim.verify_header_chain tampered);
  (* and the proof against the honest headers still pins the right root *)
  let p = Bim.prove b 10 in
  Alcotest.(check bool) "fake leaf rejected" false
    (Bim.verify ~headers:(Array.of_list headers) ~leaf:(leaf 999) p)

(* --- range proofs ---------------------------------------------------------- *)

let prop_range_proofs =
  QCheck.Test.make ~name:"range proofs verify for random intervals" ~count:60
    (QCheck.triple (QCheck.int_range 1 150) QCheck.small_nat QCheck.small_nat)
    (fun (n, a, b) ->
      let first = min (a mod n) (b mod n) and last = max (a mod n) (b mod n) in
      let f = Forest.create () in
      for i = 0 to n - 1 do
        ignore (Forest.append f (leaf i))
      done;
      let rp = Range_proof.prove f ~first ~last in
      let known = List.init (last - first + 1) (fun k -> (first + k, leaf (first + k))) in
      Range_proof.verify ~known rp)

let prop_range_proofs_reject_mutation =
  QCheck.Test.make ~name:"range proofs reject a mutated member" ~count:40
    (QCheck.pair (QCheck.int_range 2 100) QCheck.small_nat)
    (fun (n, a) ->
      let first = a mod (n - 1) in
      let last = min (n - 1) (first + 5) in
      let f = Forest.create () in
      for i = 0 to n - 1 do
        ignore (Forest.append f (leaf i))
      done;
      let rp = Range_proof.prove f ~first ~last in
      let known =
        List.init (last - first + 1) (fun k ->
            let i = first + k in
            (i, if i = first then leaf 424242 else leaf i))
      in
      not (Range_proof.verify ~known rp))

let test_range_proof_support_minimal () =
  let f = Forest.create () in
  for i = 0 to 15 do
    ignore (Forest.append f (leaf i))
  done;
  (* full range: nothing to ship *)
  let full = Range_proof.prove f ~first:0 ~last:15 in
  Alcotest.(check int) "full range needs no support" 0
    (Range_proof.support_size full);
  (* half range: one sibling subtree *)
  let half = Range_proof.prove f ~first:0 ~last:7 in
  Alcotest.(check int) "half range ships one node" 1
    (Range_proof.support_size half);
  (* missing known leaf must fail, not crash *)
  Alcotest.(check bool) "partial knowledge fails" false
    (Range_proof.verify ~known:[ (0, leaf 0) ] half)

let base_suite =
  [
    tc "proof apply" `Quick test_proof_apply;
    tc "node-set digest" `Quick test_node_set_digest;
    qcheck prop_accumulator_sound;
    qcheck prop_accumulator_rejects_fakes;
    tc "tim proof growth" `Quick test_accumulator_proof_growth;
    tc "merkle tree" `Quick test_merkle_tree;
    tc "shrubs peaks" `Quick test_shrubs_peaks;
    tc "shrubs bounded" `Quick test_shrubs_bounded;
    qcheck prop_shrubs_proofs;
    tc "shrubs stale commitment" `Quick test_shrubs_rejects_stale_commitment;
    tc "fam epoch arithmetic" `Quick test_fam_epoch_arithmetic;
    qcheck prop_fam_epoch_of_jsn_bijective;
    qcheck prop_fam_proofs;
    qcheck prop_fam_rejects_fakes;
    tc "fam anchored proofs" `Quick test_fam_anchored;
    tc "fam anchored cross-epoch" `Quick test_fam_anchored_rejects_cross_epoch;
    tc "fam purge epochs" `Quick test_fam_purge_epochs;
    tc "bim SPV" `Quick test_bim_spv;
    tc "bim tamper detection" `Quick test_bim_detects_header_tamper;
    qcheck prop_range_proofs;
    qcheck prop_range_proofs_reject_mutation;
    tc "range proof support" `Quick test_range_proof_support_minimal;
  ]

(* --- bAMT (VLDB'20 batched accumulator) ------------------------------------ *)

let prop_bamt_sound =
  QCheck.Test.make ~name:"bamt proofs verify at any size" ~count:40
    (QCheck.pair (QCheck.int_range 2 16) (QCheck.int_range 1 150))
    (fun (batch_size, n) ->
      let b = Bamt.create ~batch_size in
      for i = 0 to n - 1 do
        ignore (Bamt.append b (leaf i))
      done;
      let root = Bamt.root b in
      List.for_all
        (fun i -> Bamt.verify ~root ~leaf:(leaf i) (Bamt.prove b i))
        (List.init n Fun.id))

let test_bamt_structure () =
  let b = Bamt.create ~batch_size:8 in
  for i = 0 to 19 do
    ignore (Bamt.append b (leaf i))
  done;
  Alcotest.(check int) "two sealed batches" 2 (Bamt.batch_count b);
  Alcotest.(check int) "size" 20 (Bamt.size b);
  let root = Bamt.root b in
  Alcotest.(check bool) "fake rejected" false
    (Bamt.verify ~root ~leaf:(leaf 999) (Bamt.prove b 0));
  (* open-batch entries are provable too, and flush seals them *)
  let p = Bamt.prove b 18 in
  Alcotest.(check bool) "open batch proof" true p.Bamt.open_batch;
  Alcotest.(check bool) "open batch verifies" true
    (Bamt.verify ~root ~leaf:(leaf 18) p);
  Bamt.flush b;
  Alcotest.(check int) "three after flush" 3 (Bamt.batch_count b);
  let root = Bamt.root b in
  Alcotest.(check bool) "still verifies after flush" true
    (Bamt.verify ~root ~leaf:(leaf 18) (Bamt.prove b 18))

let bamt_suite =
  [
    qcheck prop_bamt_sound;
    tc "bamt structure" `Quick test_bamt_structure;
  ]



(* --- consistency (extension) proofs ----------------------------------------- *)

let prop_consistency_sound =
  QCheck.Test.make ~name:"consistency proofs verify for any (m, n)" ~count:80
    (QCheck.pair (QCheck.int_range 1 120) (QCheck.int_range 0 120))
    (fun (m, extra) ->
      let n = m + extra in
      let f = Forest.create () in
      for i = 0 to m - 1 do
        ignore (Forest.append f (leaf i))
      done;
      let old_peaks = Forest.peaks f in
      for i = m to n - 1 do
        ignore (Forest.append f (leaf i))
      done;
      let proof = Forest.prove_consistency f ~old_size:m in
      Forest.verify_consistency ~old_size:m ~old_peaks ~new_size:n
        ~new_peaks:(Forest.peaks f) proof)

let prop_consistency_detects_rewrite =
  QCheck.Test.make ~name:"consistency proofs reject history rewrites" ~count:40
    (QCheck.pair (QCheck.int_range 2 80) (QCheck.int_range 1 80))
    (fun (m, extra) ->
      let n = m + extra in
      (* honest old state *)
      let honest = Forest.create () in
      for i = 0 to m - 1 do
        ignore (Forest.append honest (leaf i))
      done;
      let old_peaks = Forest.peaks honest in
      (* the LSP rewrites one historical leaf and regrows *)
      let rewritten = Forest.create () in
      for i = 0 to n - 1 do
        ignore
          (Forest.append rewritten (if i = m / 2 then leaf 987654 else leaf i))
      done;
      let proof = Forest.prove_consistency rewritten ~old_size:m in
      not
        (Forest.verify_consistency ~old_size:m ~old_peaks ~new_size:n
           ~new_peaks:(Forest.peaks rewritten) proof))

let test_consistency_edge_cases () =
  let f = Forest.create () in
  ignore (Forest.append f (leaf 0));
  let p1 = Forest.peaks f in
  (* m = n: trivially consistent *)
  let proof = Forest.prove_consistency f ~old_size:1 in
  Alcotest.(check bool) "m = n" true
    (Forest.verify_consistency ~old_size:1 ~old_peaks:p1 ~new_size:1
       ~new_peaks:p1 proof);
  (* bad sizes rejected *)
  Alcotest.(check bool) "old > new rejected" false
    (Forest.verify_consistency ~old_size:2 ~old_peaks:p1 ~new_size:1
       ~new_peaks:p1 proof);
  Alcotest.check_raises "prove with bad old_size"
    (Invalid_argument "Forest.prove_consistency: bad old_size") (fun () ->
      ignore (Forest.prove_consistency f ~old_size:0))

let consistency_suite =
  [
    qcheck prop_consistency_sound;
    qcheck prop_consistency_detects_rewrite;
    tc "consistency edge cases" `Quick test_consistency_edge_cases;
  ]



(* --- fam extension proofs ------------------------------------------------------ *)

let prop_fam_extension_sound =
  QCheck.Test.make ~name:"fam extension proofs verify" ~count:60
    (QCheck.triple (QCheck.int_range 2 4) (QCheck.int_range 1 150)
       (QCheck.int_range 0 150))
    (fun (delta, m, extra) ->
      let n = m + extra in
      let f = Fam.create ~delta in
      for i = 0 to m - 1 do
        ignore (Fam.append f (leaf i))
      done;
      let old_peaks = Fam.peaks f in
      for i = m to n - 1 do
        ignore (Fam.append f (leaf i))
      done;
      let proof = Fam.prove_extension f ~old_size:m in
      Fam.verify_extension ~delta ~old_size:m ~old_peaks ~new_size:n
        ~new_commitment:(Fam.commitment f) proof)

let prop_fam_extension_detects_rewrite =
  QCheck.Test.make ~name:"fam extension rejects history rewrites" ~count:40
    (QCheck.triple (QCheck.int_range 2 4) (QCheck.int_range 2 100)
       (QCheck.int_range 1 100))
    (fun (delta, m, extra) ->
      let n = m + extra in
      let honest = Fam.create ~delta in
      for i = 0 to m - 1 do
        ignore (Fam.append honest (leaf i))
      done;
      let old_peaks = Fam.peaks honest in
      let rewritten = Fam.create ~delta in
      for i = 0 to n - 1 do
        ignore (Fam.append rewritten (if i = m / 2 then leaf 31337 else leaf i))
      done;
      let proof = Fam.prove_extension rewritten ~old_size:m in
      not
        (Fam.verify_extension ~delta ~old_size:m ~old_peaks ~new_size:n
           ~new_commitment:(Fam.commitment rewritten) proof))

let fam_extension_suite =
  [ qcheck prop_fam_extension_sound; qcheck prop_fam_extension_detects_rewrite ]



(* --- cross-model agreement ---------------------------------------------------- *)

let prop_models_agree_on_membership =
  (* tim, bAMT, bim and fam, fed the same leaves, must all accept every
     genuine leaf and all reject the same forged one *)
  QCheck.Test.make ~name:"all accumulator models agree on membership" ~count:25
    (QCheck.int_range 2 120) (fun n ->
      let acc = Accumulator.create () in
      let bamt = Bamt.create ~batch_size:8 in
      let bim = Bim.create ~block_size:8 in
      let fam = Fam.create ~delta:3 in
      for i = 0 to n - 1 do
        let h = leaf i in
        ignore (Accumulator.append acc h);
        ignore (Bamt.append bamt h);
        ignore (Bim.append bim h);
        ignore (Fam.append fam h)
      done;
      Bim.flush bim;
      let headers = Array.of_list (Bim.headers bim) in
      let acc_root = Accumulator.root acc in
      let bamt_root = Bamt.root bamt in
      let fam_c = Fam.commitment fam in
      let member i h =
        Accumulator.verify ~root:acc_root ~leaf:h (Accumulator.prove acc i)
        = Bamt.verify ~root:bamt_root ~leaf:h (Bamt.prove bamt i)
        && Bamt.verify ~root:bamt_root ~leaf:h (Bamt.prove bamt i)
           = Bim.verify ~headers ~leaf:h (Bim.prove bim i)
        && Bim.verify ~headers ~leaf:h (Bim.prove bim i)
           = Fam.verify ~commitment:fam_c ~leaf:h (Fam.prove fam i)
      in
      List.for_all (fun i -> member i (leaf i)) (List.init n Fun.id)
      && member 0 (leaf (n + 1))
      (* all reject: parity of agreement covers it, but assert explicitly *)
      && not
           (Accumulator.verify ~root:acc_root ~leaf:(leaf (n + 1))
              (Accumulator.prove acc 0)))

let prop_fam_accumulator_same_leaf_order =
  (* fam stores journals in jsn order exactly like the flat accumulator *)
  QCheck.Test.make ~name:"fam leaf order matches flat accumulator" ~count:30
    (QCheck.pair (QCheck.int_range 1 5) (QCheck.int_range 1 200))
    (fun (delta, n) ->
      let acc = Accumulator.create () in
      let fam = Fam.create ~delta in
      for i = 0 to n - 1 do
        ignore (Accumulator.append acc (leaf i));
        ignore (Fam.append fam (leaf i))
      done;
      List.for_all
        (fun i -> Hash.equal (Accumulator.leaf acc i) (Fam.leaf fam i))
        (List.init n Fun.id))

(* --- empty batches ------------------------------------------------------- *)

(* append_many [] is a contract, not an accident: no state change, no
   overflow check, no epoch roll — even at the structure's boundaries. *)
let test_forest_empty_batch () =
  let f = Forest.create () in
  ignore (Forest.append_many f [ leaf 0; leaf 1; leaf 2 ]);
  let before = Forest.peaks f in
  Alcotest.(check int) "returns current size" 3 (Forest.append_many f []);
  Alcotest.(check int) "size untouched" 3 (Forest.size f);
  Alcotest.(check bool) "peaks untouched" true
    (Proof.node_set_equal before (Forest.peaks f))

let test_shrubs_empty_batch_on_full_tree () =
  let s = Shrubs.create ~height:2 () in
  ignore (Shrubs.append_many s [ leaf 0; leaf 1; leaf 2; leaf 3 ]);
  Alcotest.(check bool) "tree is full" true (Shrubs.is_full s);
  (* a non-empty batch would overflow; the empty one must not even look *)
  Alcotest.(check int) "empty batch is a no-op" 4 (Shrubs.append_many s []);
  Alcotest.check_raises "one more leaf overflows"
    (Invalid_argument "Shrubs.append_many: batch would overflow the tree")
    (fun () -> ignore (Shrubs.append_many s [ leaf 4 ]))

let test_fam_empty_batch_at_epoch_boundary () =
  let f = Fam.create ~delta:2 in
  (* fill the first epoch exactly (capacity 2^delta) *)
  ignore (Fam.append_many f [ leaf 0; leaf 1; leaf 2; leaf 3 ]);
  let epochs = Fam.epoch_count f in
  let commitment = Fam.commitment f in
  Alcotest.(check int) "returns current size" 4 (Fam.append_many f []);
  Alcotest.(check int) "no epoch rolled" epochs (Fam.epoch_count f);
  Alcotest.(check bool) "commitment untouched" true
    (Hash.equal commitment (Fam.commitment f));
  (* the next real append does roll, proving the boundary was live *)
  ignore (Fam.append f (leaf 4));
  Alcotest.(check int) "boundary was real" (epochs + 1) (Fam.epoch_count f)

let empty_batch_suite =
  [
    tc "forest empty batch is a no-op" `Quick test_forest_empty_batch;
    tc "shrubs empty batch skips overflow check" `Quick
      test_shrubs_empty_batch_on_full_tree;
    tc "fam empty batch does not roll the epoch" `Quick
      test_fam_empty_batch_at_epoch_boundary;
  ]

let agreement_suite =
  [ qcheck prop_models_agree_on_membership; qcheck prop_fam_accumulator_same_leaf_order ]

(* A purge shows through a view frozen before it, because purged
   digests are overwritten in the node arrays the view shares: the view
   fails to prove a purged jsn exactly as the live fam does, still
   proves later jsns, and its stored-digest count falls by as much (14
   digests: epoch 0's 8 leaves and 6 interior nodes below its root). *)
let test_fam_purge_through_frozen_view () =
  let f = Fam.create ~delta:3 in
  for i = 0 to 19 do
    ignore (Fam.append f (leaf i))
  done;
  let view = Fam.freeze f in
  let live_before = Fam.stored_digests f and view_before = Fam.stored_digests view in
  Fam.purge_epochs_before f 1;
  Alcotest.(check int) "live digests reclaimed" 14
    (live_before - Fam.stored_digests f);
  Alcotest.(check int) "view digests reclaimed" 14
    (view_before - Fam.stored_digests view);
  let outcome fam jsn =
    match Fam.prove fam jsn with
    | proof ->
        if Fam.verify ~commitment:(Fam.commitment fam) ~leaf:(leaf jsn) proof
        then "verified"
        else "rejected"
    | exception e -> Printexc.to_string e
  in
  for jsn = 0 to 7 do
    let live = outcome f jsn in
    Alcotest.(check bool) "purged jsn unprovable" true (live <> "verified");
    Alcotest.(check string) "view fails as the live fam does" live (outcome view jsn)
  done;
  for jsn = 8 to 19 do
    Alcotest.(check string) "later jsn, view" "verified" (outcome view jsn);
    Alcotest.(check string) "later jsn, live" "verified" (outcome f jsn)
  done

let purge_view_suite =
  [ tc "purge shows through a frozen view" `Quick test_fam_purge_through_frozen_view ]

(* The served-proof size metric is computed from a proof's shape, not by
   encoding it: it must equal the encoded length for every journal of
   fams whose proofs cross 1, 2 and several epochs. *)
let test_fam_proof_size () =
  List.iter
    (fun (delta, n) ->
      let f = Fam.create ~delta in
      for i = 0 to n - 1 do
        ignore (Fam.append f (leaf i))
      done;
      for jsn = 0 to n - 1 do
        let p = Fam.prove f jsn in
        Alcotest.(check int)
          (Printf.sprintf "delta %d, jsn %d of %d" delta jsn n)
          (Bytes.length (Proof_codec.encode_fam_proof p))
          (Proof_codec.fam_proof_size p)
      done)
    [ (3, 1); (3, 7); (3, 30); (2, 64); (4, 100) ]

let proof_size_suite =
  [ tc "fam proof size from its shape = encoded length" `Quick
      test_fam_proof_size ]

let suite =
  base_suite @ bamt_suite @ consistency_suite @ fam_extension_suite
  @ empty_batch_suite @ agreement_suite @ purge_view_suite @ proof_size_suite
