(* Tests for the two-layer CM-Tree and its clue-oriented verification. *)

open Ledger_crypto
open Ledger_cmtree

let tc = Alcotest.test_case
let qcheck = QCheck_alcotest.to_alcotest
let jd i = Hash.digest_string ("journal" ^ string_of_int i)

let build ~clues ~per_clue =
  let cm = Cm_tree.create () in
  for c = 0 to clues - 1 do
    for v = 0 to per_clue - 1 do
      ignore (Cm_tree.insert cm ~clue:("clue" ^ string_of_int c) (jd ((c * 1000) + v)))
    done
  done;
  cm

let known ~clue_id ~first ~last =
  List.init (last - first + 1) (fun k -> (first + k, jd ((clue_id * 1000) + first + k)))

let test_insert_and_entries () =
  let cm = build ~clues:10 ~per_clue:8 in
  Alcotest.(check int) "clue count" 10 (Cm_tree.clue_count cm);
  Alcotest.(check int) "entries" 8 (Cm_tree.entries cm ~clue:"clue3");
  Alcotest.(check int) "unknown entries" 0 (Cm_tree.entries cm ~clue:"nope");
  Alcotest.(check bool) "entry digest" true
    (Hash.equal (jd 3002) (Cm_tree.entry cm ~clue:"clue3" 2));
  Alcotest.(check int) "versions returned by insert" 8
    (Cm_tree.insert cm ~clue:"clue3" (jd 3008));
  Alcotest.(check bool) "commitment exists" true
    (Cm_tree.clue_commitment cm ~clue:"clue3" <> None);
  Alcotest.(check bool) "depth positive" true
    (Cm_tree.mpt_lookup_depth cm ~clue:"clue3" > 0)

let test_whole_clue_verification () =
  let cm = build ~clues:25 ~per_clue:6 in
  let root = Cm_tree.root_hash cm in
  for c = 0 to 24 do
    let clue = "clue" ^ string_of_int c in
    let proof = Option.get (Cm_tree.prove_clue cm ~clue ()) in
    Alcotest.(check bool)
      (Printf.sprintf "clue %d verifies" c)
      true
      (Cm_tree.verify_clue ~root ~known:(known ~clue_id:c ~first:0 ~last:5) proof)
  done

let test_range_verification () =
  let cm = build ~clues:5 ~per_clue:20 in
  let root = Cm_tree.root_hash cm in
  let proof = Option.get (Cm_tree.prove_clue cm ~clue:"clue2" ~first:7 ~last:12 ()) in
  Alcotest.(check bool) "range verifies" true
    (Cm_tree.verify_clue ~root ~known:(known ~clue_id:2 ~first:7 ~last:12) proof);
  Alcotest.(check bool) "incomplete range fails" false
    (Cm_tree.verify_clue ~root ~known:(known ~clue_id:2 ~first:7 ~last:11) proof)

let test_rejects_tampered_entry () =
  let cm = build ~clues:3 ~per_clue:10 in
  let root = Cm_tree.root_hash cm in
  let proof = Option.get (Cm_tree.prove_clue cm ~clue:"clue1" ()) in
  let bad =
    (4, jd 987654) :: List.remove_assoc 4 (known ~clue_id:1 ~first:0 ~last:9)
  in
  Alcotest.(check bool) "tampered entry rejected" false
    (Cm_tree.verify_clue ~root ~known:bad proof)

let test_rejects_wrong_root () =
  let cm = build ~clues:3 ~per_clue:4 in
  let proof = Option.get (Cm_tree.prove_clue cm ~clue:"clue0" ()) in
  let old_root = Cm_tree.root_hash cm in
  ignore (Cm_tree.insert cm ~clue:"clue0" (jd 555));
  Alcotest.(check bool) "stale proof vs new root" false
    (Cm_tree.verify_clue ~root:(Cm_tree.root_hash cm)
       ~known:(known ~clue_id:0 ~first:0 ~last:3)
       proof);
  Alcotest.(check bool) "stale proof vs old root ok" true
    (Cm_tree.verify_clue ~root:old_root
       ~known:(known ~clue_id:0 ~first:0 ~last:3)
       proof)

let test_rejects_forged_committed_value () =
  (* a malicious server substituting another clue's committed node-set is
     caught by the trie proof *)
  let cm = build ~clues:2 ~per_clue:4 in
  let root = Cm_tree.root_hash cm in
  let p0 = Option.get (Cm_tree.prove_clue cm ~clue:"clue0" ()) in
  let p1 = Option.get (Cm_tree.prove_clue cm ~clue:"clue1" ()) in
  let forged = { p0 with Cm_tree.committed_value = p1.Cm_tree.committed_value } in
  Alcotest.(check bool) "swapped committed value rejected" false
    (Cm_tree.verify_clue ~root ~known:(known ~clue_id:0 ~first:0 ~last:3) forged)

let test_server_side_verification () =
  let cm = build ~clues:4 ~per_clue:5 in
  Alcotest.(check bool) "server verify ok" true
    (Cm_tree.verify_clue_server cm ~known:(known ~clue_id:2 ~first:0 ~last:4)
       ~clue:"clue2");
  let bad = [ (0, jd 31337) ] in
  Alcotest.(check bool) "server detects bad digest" false
    (Cm_tree.verify_clue_server cm ~known:bad ~clue:"clue2");
  Alcotest.(check bool) "server rejects unknown clue" false
    (Cm_tree.verify_clue_server cm ~known:[ (0, jd 0) ] ~clue:"nope");
  Alcotest.(check bool) "server rejects out-of-range version" false
    (Cm_tree.verify_clue_server cm ~known:[ (99, jd 0) ] ~clue:"clue2")

let prop_cm_matches_model =
  (* CM-Tree behaves like (clue -> digest list) built independently *)
  QCheck.Test.make ~name:"cm-tree agrees with assoc-list model" ~count:40
    QCheck.(small_list (pair (int_range 0 8) (int_range 0 1000)))
    (fun ops ->
      let cm = Cm_tree.create () in
      let model : (string, Hash.t list ref) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (c, v) ->
          let clue = "c" ^ string_of_int c in
          let d = Hash.digest_string (Printf.sprintf "%d:%d" c v) in
          ignore (Cm_tree.insert cm ~clue d);
          match Hashtbl.find_opt model clue with
          | Some r -> r := d :: !r
          | None -> Hashtbl.replace model clue (ref [ d ]))
        ops;
      Hashtbl.fold
        (fun clue r acc ->
          let expected = List.rev !r in
          acc
          && Cm_tree.entries cm ~clue = List.length expected
          && List.for_all2 Hash.equal expected
               (List.init (List.length expected) (Cm_tree.entry cm ~clue)))
        model true)

let prop_cm_proofs_random =
  QCheck.Test.make ~name:"cm-tree random clue proofs verify" ~count:30
    (QCheck.pair (QCheck.int_range 1 12) (QCheck.int_range 1 30))
    (fun (clues, per_clue) ->
      let cm = build ~clues ~per_clue in
      let root = Cm_tree.root_hash cm in
      List.for_all
        (fun c ->
          let clue = "clue" ^ string_of_int c in
          match Cm_tree.prove_clue cm ~clue () with
          | None -> false
          | Some proof ->
              Cm_tree.verify_clue ~root
                ~known:(known ~clue_id:c ~first:0 ~last:(per_clue - 1))
                proof)
        (List.init clues Fun.id))

let base_suite =
  [
    tc "insert and entries" `Quick test_insert_and_entries;
    tc "whole clue verification" `Quick test_whole_clue_verification;
    tc "range verification" `Quick test_range_verification;
    tc "tampered entry rejected" `Quick test_rejects_tampered_entry;
    tc "wrong root rejected" `Quick test_rejects_wrong_root;
    tc "forged committed value rejected" `Quick test_rejects_forged_committed_value;
    tc "server-side verification" `Quick test_server_side_verification;
    qcheck prop_cm_matches_model;
    qcheck prop_cm_proofs_random;
  ]

(* --- cSL: the clue skip list index (§IV-A) -------------------------------- *)

let test_skiplist_basics () =
  let sl = Clue_skiplist.create () in
  Alcotest.(check int) "empty" 0 (Clue_skiplist.length sl);
  Alcotest.(check (option int)) "no min" None (Clue_skiplist.min_elt sl);
  List.iter (Clue_skiplist.append sl) [ 3; 7; 8; 20; 21; 100 ];
  Alcotest.(check int) "length" 6 (Clue_skiplist.length sl);
  Alcotest.(check (option int)) "min" (Some 3) (Clue_skiplist.min_elt sl);
  Alcotest.(check (option int)) "max" (Some 100) (Clue_skiplist.max_elt sl);
  Alcotest.(check bool) "mem hit" true (Clue_skiplist.mem sl 20);
  Alcotest.(check bool) "mem miss" false (Clue_skiplist.mem sl 19);
  Alcotest.(check (option int)) "nth 0" (Some 3) (Clue_skiplist.nth sl 0);
  Alcotest.(check (option int)) "nth 4" (Some 21) (Clue_skiplist.nth sl 4);
  Alcotest.(check (option int)) "nth out" None (Clue_skiplist.nth sl 6);
  Alcotest.(check (list int)) "to_list" [ 3; 7; 8; 20; 21; 100 ]
    (Clue_skiplist.to_list sl);
  Alcotest.(check (list int)) "range" [ 7; 8; 20 ]
    (Clue_skiplist.range sl ~lo:4 ~hi:20);
  Alcotest.(check (list int)) "empty range" [] (Clue_skiplist.range sl ~lo:50 ~hi:20);
  Alcotest.check_raises "monotone keys enforced"
    (Invalid_argument "Clue_skiplist.append: keys must be strictly increasing")
    (fun () -> Clue_skiplist.append sl 100)

let prop_skiplist_model =
  QCheck.Test.make ~name:"skip list agrees with sorted-list model" ~count:50
    QCheck.(small_list small_nat)
    (fun deltas ->
      let sl = Clue_skiplist.create () in
      let keys =
        List.rev
          (snd
             (List.fold_left
                (fun (last, acc) d ->
                  let k = last + 1 + d in
                  Clue_skiplist.append sl k;
                  (k, k :: acc))
                (-1, []) deltas))
      in
      Clue_skiplist.to_list sl = keys
      && List.for_all (Clue_skiplist.mem sl) keys
      && List.for_all2
           (fun i k -> Clue_skiplist.nth sl i = Some k)
           (List.init (List.length keys) Fun.id)
           keys)

let test_skiplist_logarithmic_search () =
  let sl = Clue_skiplist.create () in
  let n = 1 lsl 14 in
  for i = 0 to n - 1 do
    Clue_skiplist.append sl i
  done;
  (* average search cost should be O(log n), far below n *)
  let total = ref 0 in
  let probes = 200 in
  for k = 1 to probes do
    total := !total + Clue_skiplist.search_steps sl (k * 81 mod n)
  done;
  let avg = float_of_int !total /. float_of_int probes in
  Alcotest.(check bool)
    (Printf.sprintf "avg steps %.1f is logarithmic" avg)
    true
    (avg < 8. *. log (float_of_int n));
  Alcotest.(check bool) "multiple levels in use" true
    (Clue_skiplist.level_count sl > 5)

(* Every read against a sorted-list model, over lists of up to 5 000
   keys: long enough that the head and finger arrays, which start one
   level high, double several times.  The seed varies the level draws;
   probes reach below the first key and past the last. *)
let prop_skiplist_doublings =
  QCheck.Test.make
    ~name:"skip list agrees with its model across capacity doublings"
    ~count:30
    QCheck.(
      triple int
        (list_of_size Gen.(int_range 0 5000) (int_range 0 3))
        (list_of_size Gen.(int_range 1 20)
           (pair (int_range (-2) 20_002) (int_range (-2) 20_002))))
    (fun (seed, deltas, probes) ->
      let sl = Clue_skiplist.create ~seed () in
      let keys =
        List.rev
          (snd
             (List.fold_left
                (fun (last, acc) d ->
                  let k = last + 1 + d in
                  Clue_skiplist.append sl k;
                  (k, k :: acc))
                (-1, []) deltas))
      in
      let model = Array.of_list keys in
      let n = Array.length model in
      let present = Hashtbl.create n in
      Array.iter (fun k -> Hashtbl.replace present k ()) model;
      let top = if n = 0 then 0 else model.(n - 1) + 1 in
      Clue_skiplist.to_list sl = keys
      && Clue_skiplist.length sl = n
      && Clue_skiplist.min_elt sl = (if n = 0 then None else Some model.(0))
      && Clue_skiplist.max_elt sl
         = (if n = 0 then None else Some model.(n - 1))
      && List.for_all
           (fun i ->
             Clue_skiplist.nth sl i
             = if i >= 0 && i < n then Some model.(i) else None)
           (List.init (n + 2) (fun i -> i - 1))
      && List.for_all
           (fun k -> Clue_skiplist.mem sl k = Hashtbl.mem present k)
           (List.init (top + 2) (fun k -> k - 1))
      && List.for_all
           (fun (lo, hi) ->
             Clue_skiplist.range sl ~lo ~hi
             = List.filter (fun k -> lo <= k && k <= hi) keys)
           probes)

let skiplist_suite =
  [
    tc "skip list basics" `Quick test_skiplist_basics;
    qcheck prop_skiplist_model;
    tc "skip list O(log n) search" `Quick test_skiplist_logarithmic_search;
  ]



(* --- lineage extension proofs ------------------------------------------------ *)

let test_clue_extension () =
  let cm = Cm_tree.create () in
  for v = 0 to 5 do
    ignore (Cm_tree.insert cm ~clue:"asset" (jd v))
  done;
  (* client reads the clue: keeps the committed value *)
  let old_proof = Option.get (Cm_tree.prove_clue cm ~clue:"asset" ()) in
  let old_value = old_proof.Cm_tree.committed_value in
  (* lineage grows *)
  for v = 6 to 13 do
    ignore (Cm_tree.insert cm ~clue:"asset" (jd v))
  done;
  let new_proof = Option.get (Cm_tree.prove_clue cm ~clue:"asset" ()) in
  let new_value = new_proof.Cm_tree.committed_value in
  let ext = Option.get (Cm_tree.prove_clue_extension cm ~clue:"asset" ~old_size:6) in
  Alcotest.(check bool) "honest growth verifies" true
    (Cm_tree.verify_clue_extension ~old_value ~new_value ext);
  (* a rewritten history cannot produce a valid extension proof *)
  let forged = Cm_tree.create () in
  for v = 0 to 13 do
    ignore (Cm_tree.insert forged ~clue:"asset" (jd (if v = 2 then 999 else v)))
  done;
  let forged_proof = Option.get (Cm_tree.prove_clue forged ~clue:"asset" ()) in
  let forged_ext =
    Option.get (Cm_tree.prove_clue_extension forged ~clue:"asset" ~old_size:6)
  in
  Alcotest.(check bool) "rewrite rejected" false
    (Cm_tree.verify_clue_extension ~old_value
       ~new_value:forged_proof.Cm_tree.committed_value forged_ext);
  (* out-of-range requests *)
  Alcotest.(check bool) "bad old size" true
    (Cm_tree.prove_clue_extension cm ~clue:"asset" ~old_size:99 = None);
  Alcotest.(check bool) "unknown clue" true
    (Cm_tree.prove_clue_extension cm ~clue:"nope" ~old_size:1 = None)

let extension_suite = [ tc "clue lineage extension" `Quick test_clue_extension ]

(* Every answer a CM-Tree gives about [clues], as one digest: roots,
   counts, leaves, commitments, clue proofs over every prefix and
   suffix range, extension proofs from every old size and the
   server-side check. *)
let cm_answers cm clues =
  let w = Wire.writer () in
  let w_opt f = function
    | None -> Wire.w_u8 w 0
    | Some x -> Wire.w_u8 w 1; f x
  in
  Wire.w_hash w (Cm_tree.root_hash cm);
  Wire.w_int w (Cm_tree.clue_count cm);
  Wire.w_int w (Cm_tree.stored_digests cm);
  List.iter
    (fun clue ->
      let n = Cm_tree.entries cm ~clue in
      Wire.w_int w n;
      Wire.w_int w (Cm_tree.mpt_lookup_depth cm ~clue);
      let leaves = List.init n (fun i -> (i, Cm_tree.entry cm ~clue i)) in
      List.iter (fun (_, h) -> Wire.w_hash w h) leaves;
      w_opt (Wire.w_hash w) (Cm_tree.clue_commitment cm ~clue);
      Wire.w_u8 w
        (Bool.to_int (Cm_tree.verify_clue_server cm ~known:leaves ~clue));
      w_opt (Cm_tree.w_clue_proof w) (Cm_tree.prove_clue cm ~clue ());
      for k = 0 to n - 1 do
        w_opt (Cm_tree.w_clue_proof w)
          (Cm_tree.prove_clue cm ~clue ~first:k ~last:(n - 1) ());
        w_opt (Cm_tree.w_clue_proof w)
          (Cm_tree.prove_clue cm ~clue ~first:0 ~last:k ());
        w_opt
          (Wire.w_list w (Wire.w_list w (Wire.w_hash w)))
          (Cm_tree.prove_clue_extension cm ~clue ~old_size:(k + 1))
      done)
    clues;
  Hash.to_hex (Hash.digest_bytes (Wire.contents w))

(* A frozen CM-Tree shares its clues' node arrays with the writer, which
   appends past every pinned count.  Freeze after each of 40 inserts,
   then grow every clue far enough to regrow each node array several
   times and add forest levels: every frozen view must still give the
   answers it gave when it was taken. *)
let test_frozen_view_stays_put () =
  let cm = Cm_tree.create () in
  let clues = [ "a"; "b"; "c"; "d" ] in
  let next = ref 0 in
  let insert clue =
    incr next;
    ignore (Cm_tree.insert cm ~clue (jd !next))
  in
  let views =
    List.init 40 (fun step ->
        insert "a";
        if step mod 3 = 0 then insert "b";
        if step = 5 then insert "c";
        let view = Cm_tree.freeze cm in
        (step, view, cm_answers view clues))
  in
  for i = 1 to 300 do
    insert "a";
    insert "b";
    insert "c";
    if i mod 2 = 0 then insert "d"
  done;
  Alcotest.(check int) "live tree grew" 340 (Cm_tree.entries cm ~clue:"a");
  List.iter
    (fun (step, view, before) ->
      Alcotest.(check string)
        (Printf.sprintf "view after step %d" step)
        before (cm_answers view clues))
    views

let suite =
  base_suite @ skiplist_suite @ extension_suite
  @ [ qcheck prop_skiplist_doublings;
      tc "frozen view stays put under further inserts" `Quick
        test_frozen_view_stays_put ]
