(* Tests for the Merkle Patricia Trie and the ccMPT baseline. *)

open Ledger_crypto
open Ledger_merkle
open Ledger_mpt

let tc = Alcotest.test_case
let qcheck = QCheck_alcotest.to_alcotest

let test_nibbles () =
  let n = Nibble.of_string "\xAB\xCD" in
  Alcotest.(check (list int)) "high nibble first" [ 0xA; 0xB; 0xC; 0xD ]
    (List.init (String.length n) (Nibble.get n));
  Alcotest.(check string) "hex render" "abcd" n;
  Alcotest.(check int) "64 nibbles per hash" 64
    (String.length (Nibble.of_hash (Hash.digest_string "x")));
  let a = "1234" and b = "129" in
  Alcotest.(check int) "common prefix" 2 (Nibble.common_prefix_length a 0 b 0);
  Alcotest.(check int) "offset prefix" 1 (Nibble.common_prefix_length a 1 b 1)

let test_mpt_basics () =
  let t = Mpt.create () in
  Alcotest.(check bool) "empty root" true (Hash.equal Hash.zero (Mpt.root_hash t));
  Mpt.insert_string t ~key:"alpha" (Bytes.of_string "1");
  Mpt.insert_string t ~key:"beta" (Bytes.of_string "2");
  Alcotest.(check (option string)) "find alpha" (Some "1")
    (Option.map Bytes.to_string (Mpt.find_string t ~key:"alpha"));
  Alcotest.(check (option string)) "find missing" None
    (Option.map Bytes.to_string (Mpt.find_string t ~key:"gamma"));
  Alcotest.(check int) "cardinal" 2 (Mpt.cardinal t);
  let before = Mpt.root_hash t in
  Mpt.insert_string t ~key:"alpha" (Bytes.of_string "1'");
  Alcotest.(check int) "overwrite keeps cardinal" 2 (Mpt.cardinal t);
  Alcotest.(check bool) "root changes" false
    (Hash.equal before (Mpt.root_hash t))

let test_mpt_root_insensitive_to_order () =
  let items = List.init 50 (fun i -> (Printf.sprintf "key-%d" i, string_of_int i)) in
  let build order =
    let t = Mpt.create () in
    List.iter (fun (k, v) -> Mpt.insert_string t ~key:k (Bytes.of_string v)) order;
    Mpt.root_hash t
  in
  let r1 = build items and r2 = build (List.rev items) in
  Alcotest.(check bool) "same content, same root" true (Hash.equal r1 r2)

let prop_mpt_model =
  (* trie agrees with a Hashtbl model under random insertions, including
     key overwrites *)
  QCheck.Test.make ~name:"mpt agrees with map model" ~count:60
    QCheck.(small_list (pair (int_range 0 40) small_nat))
    (fun ops ->
      let t = Mpt.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          let key = "k" ^ string_of_int k in
          Mpt.insert_string t ~key (Bytes.of_string (string_of_int v));
          Hashtbl.replace model key (string_of_int v))
        ops;
      Hashtbl.length model = Mpt.cardinal t
      && Hashtbl.fold
           (fun k v acc ->
             acc
             && Mpt.find_string t ~key:k = Some (Bytes.of_string v))
           model true)

let prop_mpt_proofs =
  QCheck.Test.make ~name:"mpt proofs verify and bind values" ~count:40
    (QCheck.int_range 1 80) (fun n ->
      let t = Mpt.create () in
      for i = 0 to n - 1 do
        Mpt.insert_string t
          ~key:("key-" ^ string_of_int i)
          (Bytes.of_string (string_of_int (i * i)))
      done;
      let root = Mpt.root_hash t in
      List.for_all
        (fun i ->
          let key = "key-" ^ string_of_int i in
          match Mpt.prove_string t ~key with
          | None -> false
          | Some proof ->
              Mpt.verify_proof_string ~root ~key
                ~value:(Bytes.of_string (string_of_int (i * i)))
                proof
              && not
                   (Mpt.verify_proof_string ~root ~key
                      ~value:(Bytes.of_string "forged") proof))
        (List.init n Fun.id))

let test_mpt_proof_wrong_root () =
  let t = Mpt.create () in
  Mpt.insert_string t ~key:"a" (Bytes.of_string "1");
  Mpt.insert_string t ~key:"b" (Bytes.of_string "2");
  let proof = Option.get (Mpt.prove_string t ~key:"a") in
  let root = Mpt.root_hash t in
  Mpt.insert_string t ~key:"c" (Bytes.of_string "3");
  Alcotest.(check bool) "stale proof fails on new root" false
    (Mpt.verify_proof_string ~root:(Mpt.root_hash t) ~key:"a"
       ~value:(Bytes.of_string "1") proof);
  Alcotest.(check bool) "stale proof valid on old root" true
    (Mpt.verify_proof_string ~root ~key:"a" ~value:(Bytes.of_string "1") proof)

let test_mpt_raw_keys () =
  (* raw nibble keys exercise extension splitting deterministically *)
  let t = Mpt.create () in
  let k1 = "1234" and k2 = "1235" and k3 = "19" in
  Mpt.insert t ~key:k1 (Bytes.of_string "a");
  Mpt.insert t ~key:k2 (Bytes.of_string "b");
  Mpt.insert t ~key:k3 (Bytes.of_string "c");
  Alcotest.(check (option string)) "k1" (Some "a")
    (Option.map Bytes.to_string (Mpt.find t ~key:k1));
  Alcotest.(check (option string)) "k2" (Some "b")
    (Option.map Bytes.to_string (Mpt.find t ~key:k2));
  Alcotest.(check (option string)) "k3" (Some "c")
    (Option.map Bytes.to_string (Mpt.find t ~key:k3));
  Alcotest.(check bool) "depth positive" true (Mpt.lookup_depth t ~key:k1 > 0);
  Alcotest.check_raises "not a nibble path"
    (Invalid_argument "Mpt.insert: not a nibble path") (fun () ->
      Mpt.insert t ~key:"12G" (Bytes.of_string "x"));
  let root = Mpt.root_hash t in
  List.iter
    (fun (k, v) ->
      let proof = Option.get (Mpt.prove t ~key:k) in
      Alcotest.(check bool) "raw proof" true
        (Mpt.verify_proof ~root ~key:k ~value:(Bytes.of_string v) proof))
    [ (k1, "a"); (k2, "b"); (k3, "c") ]

let test_mpt_value_at_branch () =
  (* a key that is a strict prefix of another puts its value on a branch *)
  let t = Mpt.create () in
  let short = "12" and long = "123" in
  Mpt.insert t ~key:long (Bytes.of_string "long");
  Mpt.insert t ~key:short (Bytes.of_string "short");
  Alcotest.(check (option string)) "short" (Some "short")
    (Option.map Bytes.to_string (Mpt.find t ~key:short));
  Alcotest.(check (option string)) "long" (Some "long")
    (Option.map Bytes.to_string (Mpt.find t ~key:long));
  let root = Mpt.root_hash t in
  let proof = Option.get (Mpt.prove t ~key:short) in
  Alcotest.(check bool) "branch-value proof" true
    (Mpt.verify_proof ~root ~key:short ~value:(Bytes.of_string "short") proof);
  (* an empty value on a branch is a value, not an absent one *)
  Mpt.insert t ~key:"1" Bytes.empty;
  Alcotest.(check (option string)) "empty branch value" (Some "")
    (Option.map Bytes.to_string (Mpt.find t ~key:"1"));
  Alcotest.(check int) "empty value counted" 3 (Mpt.cardinal t);
  Alcotest.(check bool) "empty branch-value proof" true
    (Mpt.verify_proof ~root:(Mpt.root_hash t) ~key:"1" ~value:Bytes.empty
       (Option.get (Mpt.prove t ~key:"1")))

(* --- ccMPT ----------------------------------------------------------------- *)

let jd i = Hash.digest_string ("j" ^ string_of_int i)

let test_ccmpt () =
  let acc = Accumulator.create () in
  let cc = Ccmpt.create acc in
  for i = 0 to 199 do
    ignore (Accumulator.append acc (jd i));
    Ccmpt.add cc ~clue:("c" ^ string_of_int (i mod 20)) ~jsn:i
  done;
  Alcotest.(check int) "counter" 10 (Ccmpt.counter cc ~clue:"c3");
  Alcotest.(check int) "jsns count" 10 (List.length (Ccmpt.jsns cc ~clue:"c3"));
  Alcotest.(check (list int)) "jsns ordered" [ 3; 23; 43 ]
    (List.filteri (fun i _ -> i < 3) (Ccmpt.jsns cc ~clue:"c3"));
  let proof = Option.get (Ccmpt.prove_clue cc ~clue:"c3") in
  Alcotest.(check bool) "verifies" true
    (Ccmpt.verify_clue cc ~clue:"c3" ~mpt_root:(Ccmpt.root_hash cc)
       ~acc_root:(Accumulator.root acc) proof);
  Alcotest.(check bool) "wrong clue fails" false
    (Ccmpt.verify_clue cc ~clue:"c4" ~mpt_root:(Ccmpt.root_hash cc)
       ~acc_root:(Accumulator.root acc) proof);
  Alcotest.(check bool) "unknown clue" true
    (Ccmpt.prove_clue cc ~clue:"nope" = None);
  Alcotest.(check int) "unknown counter" 0 (Ccmpt.counter cc ~clue:"nope")

let test_ccmpt_detects_dropped_journal () =
  (* a cheating server that hides one of the m journals fails the count *)
  let acc = Accumulator.create () in
  let cc = Ccmpt.create acc in
  for i = 0 to 9 do
    ignore (Accumulator.append acc (jd i));
    Ccmpt.add cc ~clue:"k" ~jsn:i
  done;
  let proof = Option.get (Ccmpt.prove_clue cc ~clue:"k") in
  let truncated =
    { proof with Ccmpt.journal_proofs = List.tl proof.Ccmpt.journal_proofs }
  in
  Alcotest.(check bool) "missing journal detected" false
    (Ccmpt.verify_clue cc ~clue:"k" ~mpt_root:(Ccmpt.root_hash cc)
       ~acc_root:(Accumulator.root acc) truncated)

let base_suite =
  [
    tc "nibbles" `Quick test_nibbles;
    tc "mpt basics" `Quick test_mpt_basics;
    tc "mpt order independence" `Quick test_mpt_root_insensitive_to_order;
    qcheck prop_mpt_model;
    qcheck prop_mpt_proofs;
    tc "mpt stale proof" `Quick test_mpt_proof_wrong_root;
    tc "mpt raw keys" `Quick test_mpt_raw_keys;
    tc "mpt value at branch" `Quick test_mpt_value_at_branch;
    tc "ccmpt" `Quick test_ccmpt;
    tc "ccmpt dropped journal" `Quick test_ccmpt_detects_dropped_journal;
  ]

(* random raw nibble keys, including prefix relationships *)
let key_of_digits l = String.of_seq (Seq.map Nibble.digit (List.to_seq l))

let prop_mpt_raw_fuzz =
  QCheck.Test.make ~name:"mpt fuzz with raw nibble keys" ~count:60
    QCheck.(small_list (pair (list_of_size (Gen.int_range 1 6) (int_range 0 15)) small_nat))
    (fun ops ->
      let t = Mpt.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (key_list, v) ->
          let key = key_of_digits key_list in
          let value = Bytes.of_string (string_of_int v) in
          Mpt.insert t ~key value;
          Hashtbl.replace model key_list value)
        ops;
      let root = Mpt.root_hash t in
      Hashtbl.fold
        (fun key_list value acc ->
          let key = key_of_digits key_list in
          acc
          && Mpt.find t ~key = Some value
          &&
          match Mpt.prove t ~key with
          | None -> false
          | Some proof -> Mpt.verify_proof ~root ~key ~value proof)
        model true)

let fuzz_suite = [ qcheck prop_mpt_raw_fuzz ]

let suite = base_suite @ fuzz_suite

(* --- byte golden over non-CM-Tree key shapes ----------------------------- *)

(* [mpt.golden] records, for a fixed insertion script over keys that the
   64-nibble CM-Tree keys never produce (variable lengths, a key that is a
   proper prefix of another so branches carry values, splits that leave an
   empty remainder, a 4096-nibble key), the root after every insert and the
   length and SHA-256 of every encoded inclusion proof and range proof.
   One "<name> <value>" line each; on a mismatch the computed file is
   written to [mpt.golden.actual] beside the running test binary. *)
let mpt_golden_file = "mpt.golden"

let golden_long_key =
  "7" ^ String.init 4095 (fun i -> "0123456789abcdef".[((i * 7) + (i / 16)) land 15])

let golden_script =
  [
    "1234"; "1235"; "19"; "12"; "123"; "ab0"; "ab"; "ab0"; "f"; "f0"; "f00";
    golden_long_key; String.sub golden_long_key 0 2048;
    Hash.to_hex (Hash.scatter "alpha"); Hash.to_hex (Hash.scatter "beta");
    "0"; "00"; "000f"; "1234";
  ]

let golden_windows =
  let long_mid = String.sub golden_long_key 0 2048 in
  [
    ("all", "", None); ("empty", "", Some ""); ("ones", "1", Some "2");
    ("point-12", "12", Some "120"); ("point-123", "123", Some "1230");
    ("ab", "ab", Some "ac"); ("sevens", "7", Some "8");
    ("point-long-mid", long_mid, Some (long_mid ^ "0"));
    ("point-long", golden_long_key, Some (golden_long_key ^ "0"));
    ("absent", "5", Some "6"); ("f0-up", "f0", None); ("zeros", "0", Some "1");
    ("mid-split", "12345", Some "ab0");
  ]

let golden_value i = Bytes.of_string (if i = 7 then "" else "v" ^ string_of_int i)

(* encode, check the bytes decode and re-encode to themselves, digest *)
let encoded_line name write read x =
  let encode x =
    let w = Wire.writer () in
    write w x;
    Wire.contents w
  in
  let b = encode x in
  (match Wire.decode b read with
  | Some x' when Bytes.equal (encode x') b -> ()
  | _ -> Alcotest.failf "golden %s: encoding does not round-trip" name);
  Printf.sprintf "%s %d %s" name (Bytes.length b) (Hash.to_hex (Hash.digest_bytes b))

let mpt_golden_lines () =
  let t = Mpt.create () in
  let roots =
    List.mapi
      (fun i k ->
        Mpt.insert t ~key:k (golden_value i);
        Printf.sprintf "root/%02d %s" i (Hash.to_hex (Mpt.root_hash t)))
      golden_script
  in
  let root = Mpt.root_hash t in
  let proofs =
    List.mapi
      (fun i key ->
        let proof = Option.get (Mpt.prove t ~key) in
        let value = Option.get (Mpt.find t ~key) in
        if not (Mpt.verify_proof ~root ~key ~value proof) then
          Alcotest.failf "golden key %d: proof does not verify" i;
        encoded_line (Printf.sprintf "proof/%02d" i) Mpt.w_proof Mpt.r_proof proof)
      golden_script
  in
  let ranges =
    List.concat_map
      (fun (name, lo, hi) ->
        let proof = Mpt.prove_range t ~lo ~hi in
        let rows =
          match Mpt.verify_range ~root ~lo ~hi proof with
          | Some rows -> rows
          | None -> Alcotest.failf "golden window %s: range proof rejected" name
        in
        let listed = ref [] in
        Mpt.iter_range t ~lo ?hi (fun k v -> listed := (k, v) :: !listed);
        if rows <> List.rev !listed then
          Alcotest.failf "golden window %s: proof rows differ from iter_range" name;
        let row_text =
          String.concat ";"
            (List.map (fun (k, v) -> k ^ "=" ^ Bytes.to_string v) rows)
        in
        [
          encoded_line ("range/" ^ name) Mpt.w_range_proof
            Mpt.r_range_proof proof;
          Printf.sprintf "rows/%s %d %s" name (List.length rows)
            (Hash.to_hex (Hash.digest_string row_text));
        ])
      golden_windows
  in
  (Printf.sprintf "cardinal %d" (Mpt.cardinal t) :: roots) @ proofs @ ranges

let test_mpt_golden () =
  let lines = mpt_golden_lines () in
  let text = String.concat "\n" lines ^ "\n" in
  let recorded = In_channel.with_open_text mpt_golden_file In_channel.input_all in
  if text <> recorded then begin
    Out_channel.with_open_text (mpt_golden_file ^ ".actual") (fun oc ->
        output_string oc text);
    let recorded_lines = String.split_on_char '\n' recorded in
    let first =
      List.find_opt (fun l -> not (List.mem l recorded_lines)) lines
      |> Option.value ~default:"(line count)"
    in
    Alcotest.failf "%d lines computed, %d recorded in %s; first differing: %s"
      (List.length lines) (List.length recorded_lines - 1) mpt_golden_file first
  end

let suite = suite @ [ tc "golden: roots and proof bytes over odd key shapes" `Quick test_mpt_golden ]
