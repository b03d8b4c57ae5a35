(* Tests for the byte-level client/proxy/server protocol (Fig. 1): every
   request and proof object must survive the wire, and the client must be
   able to verify everything locally from decoded responses.

   The wire boundary implies genuine client-side signing, so these tests
   run the Real crypto profile on a small workload. *)

open Ledger_crypto
open Ledger_storage
open Ledger_core
open Ledger_merkle

let tc = Alcotest.test_case
let qcheck = QCheck_alcotest.to_alcotest

let make_service () =
  let clock = Clock.create () in
  let config =
    { Ledger.default_config with name = "svc"; block_size = 4; fam_delta = 3 }
  in
  let ledger = Ledger.create ~config ~clock () in
  let member, priv = Ledger.new_member ledger ~name:"svc-client" ~role:Roles.Regular_user in
  let client =
    Service.Client.create ~ledger_uri:(Ledger.uri ledger) ~member ~priv ()
  in
  (clock, ledger, client)

let roundtrip ledger req_bytes = Service.Client.parse (Service.handle ledger req_bytes)

let test_append_over_wire () =
  let clock, ledger, client = make_service () in
  let receipts =
    List.init 6 (fun i ->
        Clock.advance_ms clock 10.;
        let req =
          Service.Client.make_append client ~clues:[ "wire-clue" ]
            ~client_ts:(Clock.now clock)
            (Bytes.of_string (Printf.sprintf "wire payload %d" i))
        in
        match roundtrip ledger req with
        | Some (Service.Receipt_r r) -> r
        | Some (Service.Error_r e) -> Alcotest.fail e
        | _ -> Alcotest.fail "unexpected response")
  in
  Alcotest.(check int) "committed" 6 (Ledger.size ledger);
  (* receipts decoded from the wire verify with real ECDSA *)
  List.iter
    (fun r ->
      Alcotest.(check bool) "wire receipt verifies" true
        (Receipt.verify ~lsp_pub:(Ledger.lsp_public_key ledger) r))
    receipts;
  (* the audit sees wire-appended journals as fully signed *)
  let report = Audit.run ~receipts ledger in
  Alcotest.(check bool) "audit ok" true report.Audit.ok

let test_replay_rejected () =
  let clock, ledger, client = make_service () in
  Clock.advance_ms clock 10.;
  let req =
    Service.Client.make_append client ~client_ts:(Clock.now clock)
      (Bytes.of_string "original")
  in
  (match roundtrip ledger req with
  | Some (Service.Receipt_r _) -> ()
  | _ -> Alcotest.fail "append failed");
  (* a tampered request (flip a payload byte) must be rejected: pi_c breaks *)
  let tampered = Bytes.copy req in
  let off = Bytes.length tampered - 100 in
  Bytes.set tampered off (Char.chr (Char.code (Bytes.get tampered off) lxor 1));
  (match roundtrip ledger tampered with
  | Some (Service.Error_r _) -> ()
  | Some (Service.Receipt_r _) -> Alcotest.fail "tampered request accepted"
  | _ -> ());
  (* garbage is answered with a protocol error, not an exception *)
  match roundtrip ledger (Bytes.of_string "garbage") with
  | Some (Service.Error_r msg) ->
      Alcotest.(check string) "malformed" "malformed request" msg
  | _ -> Alcotest.fail "expected protocol error"

let test_proofs_over_wire () =
  let clock, ledger, client = make_service () in
  for i = 0 to 9 do
    Clock.advance_ms clock 10.;
    let req =
      Service.Client.make_append client ~clues:[ "k" ^ string_of_int (i mod 2) ]
        ~client_ts:(Clock.now clock)
        (Bytes.of_string (Printf.sprintf "p%d" i))
    in
    match roundtrip ledger req with
    | Some (Service.Receipt_r _) -> ()
    | _ -> Alcotest.fail "append failed"
  done;
  (* fetch commitment, then verify an existence proof fully client-side *)
  let commitment, _size =
    match roundtrip ledger (Service.Client.make_get_commitment ()) with
    | Some (Service.Commitment_r { commitment; size }) -> (commitment, size)
    | _ -> Alcotest.fail "no commitment"
  in
  let payload =
    match roundtrip ledger (Service.Client.make_get_payload ~jsn:4) with
    | Some (Service.Payload_r (Some p)) -> p
    | _ -> Alcotest.fail "no payload"
  in
  Alcotest.(check string) "payload content" "p4" (Bytes.to_string payload);
  (match roundtrip ledger (Service.Client.make_get_proof ~jsn:4) with
  | Some (Service.Proof_r proof) ->
      (* the client recomputes the leaf from the journal it received via a
         receipt; here we use the server's receipt tx-hash *)
      let receipt =
        match roundtrip ledger (Service.Client.make_get_receipt ~jsn:4) with
        | Some (Service.Receipt_r r) -> r
        | _ -> Alcotest.fail "no receipt"
      in
      Alcotest.(check bool) "fam proof verified client-side" true
        (Fam.verify ~commitment ~leaf:receipt.Receipt.tx_hash proof)
  | _ -> Alcotest.fail "no proof");
  (* clue proof over the wire *)
  match
    roundtrip ledger (Service.Client.make_get_clue_proof ~clue:"k1" ())
  with
  | Some (Service.Clue_proof_r (Some proof)) ->
      Alcotest.(check bool) "clue proof verified" true
        (Ledger.verify_clue_client ledger proof)
  | _ -> Alcotest.fail "no clue proof"

let test_out_of_range_requests () =
  let _, ledger, _ = make_service () in
  List.iter
    (fun req ->
      match roundtrip ledger req with
      | Some (Service.Error_r _) -> ()
      | _ -> Alcotest.fail "expected error response")
    [
      Service.Client.make_get_proof ~jsn:5;
      Service.Client.make_get_payload ~jsn:(-1);
      Service.Client.make_get_receipt ~jsn:100;
      Service.Client.make_get_commitment ();
      (* empty ledger *)
    ]

(* --- codec roundtrips ------------------------------------------------------ *)

let leaf i = Hash.digest_string ("w" ^ string_of_int i)

let prop_fam_proof_codec =
  QCheck.Test.make ~name:"fam proofs roundtrip the wire" ~count:30
    (QCheck.pair (QCheck.int_range 2 4) (QCheck.int_range 1 120))
    (fun (delta, n) ->
      let fam = Fam.create ~delta in
      for i = 0 to n - 1 do
        ignore (Fam.append fam (leaf i))
      done;
      let c = Fam.commitment fam in
      List.for_all
        (fun jsn ->
          let proof = Fam.prove fam jsn in
          match Proof_codec.decode_fam_proof (Proof_codec.encode_fam_proof proof) with
          | None -> false
          | Some proof' -> Fam.verify ~commitment:c ~leaf:(leaf jsn) proof')
        [ 0; n / 2; n - 1 ])

let prop_range_proof_codec =
  QCheck.Test.make ~name:"range proofs roundtrip the wire" ~count:30
    (QCheck.int_range 2 100) (fun n ->
      let f = Forest.create () in
      for i = 0 to n - 1 do
        ignore (Forest.append f (leaf i))
      done;
      let rp = Range_proof.prove f ~first:0 ~last:(n / 2) in
      match Proof_codec.decode_range_proof (Proof_codec.encode_range_proof rp) with
      | None -> false
      | Some rp' ->
          let known = List.init ((n / 2) + 1) (fun i -> (i, leaf i)) in
          Range_proof.verify ~known rp')

let prop_request_codec_total =
  QCheck.Test.make ~name:"request decoder survives random bytes" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_range 0 80))
    (fun s ->
      match Service.decode_request (Bytes.of_string s) with
      | Some _ | None -> true)

let base_suite =
  [
    tc "append over the wire" `Slow test_append_over_wire;
    tc "tampered/garbage requests rejected" `Slow test_replay_rejected;
    tc "proofs over the wire" `Slow test_proofs_over_wire;
    tc "out-of-range requests" `Quick test_out_of_range_requests;
    qcheck prop_fam_proof_codec;
    qcheck prop_range_proof_codec;
    qcheck prop_request_codec_total;
  ]

let prop_response_codec_total =
  QCheck.Test.make ~name:"response decoder survives random bytes" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_range 0 120))
    (fun s ->
      match Service.decode_response (Bytes.of_string s) with
      | Some _ | None -> true)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"error responses roundtrip" ~count:50
    QCheck.printable_string (fun msg ->
      match Service.decode_response (Service.encode_response (Service.Error_r msg)) with
      | Some (Service.Error_r m) -> m = msg
      | _ -> false)

let fuzz_suite =
  [ qcheck prop_response_codec_total; qcheck prop_response_roundtrip ]



let test_extension_over_wire () =
  (* a returning client: anchor at size m, come back later, fetch the
     extension proof over the wire, verify the ledger only appended *)
  let clock, ledger, client = make_service () in
  let append i =
    Clock.advance_ms clock 10.;
    let req =
      Service.Client.make_append client ~client_ts:(Clock.now clock)
        (Bytes.of_string (Printf.sprintf "e%d" i))
    in
    match roundtrip ledger req with
    | Some (Service.Receipt_r _) -> ()
    | _ -> Alcotest.fail "append failed"
  in
  for i = 0 to 5 do append i done;
  let old_size = Ledger.size ledger in
  let old_peaks = Fam.anchor_peaks (Ledger.make_anchor ledger) in
  for i = 6 to 14 do append i done;
  (match roundtrip ledger (Service.Client.make_get_extension ~old_size) with
  | Some (Service.Extension_r proof) ->
      Alcotest.(check bool) "wire extension verifies" true
        (Ledger.verify_extension ledger ~old_size ~old_peaks proof)
  | _ -> Alcotest.fail "no extension proof");
  (* out of range *)
  match roundtrip ledger (Service.Client.make_get_extension ~old_size:999) with
  | Some (Service.Error_r _) -> ()
  | _ -> Alcotest.fail "expected error"

let prop_extension_codec =
  QCheck.Test.make ~name:"extension proofs roundtrip the wire" ~count:30
    (QCheck.triple (QCheck.int_range 2 4) (QCheck.int_range 1 100)
       (QCheck.int_range 0 100))
    (fun (delta, m, extra) ->
      let n = m + extra in
      let fam = Fam.create ~delta in
      for i = 0 to m - 1 do
        ignore (Fam.append fam (leaf i))
      done;
      let old_peaks = Fam.peaks fam in
      for i = m to n - 1 do
        ignore (Fam.append fam (leaf i))
      done;
      let proof = Fam.prove_extension fam ~old_size:m in
      match
        Proof_codec.decode_fam_extension (Proof_codec.encode_fam_extension proof)
      with
      | None -> false
      | Some proof' ->
          Fam.verify_extension ~delta ~old_size:m ~old_peaks ~new_size:n
            ~new_commitment:(Fam.commitment fam) proof')

let extension_suite =
  [
    tc "extension over the wire" `Slow test_extension_over_wire;
    qcheck prop_extension_codec;
  ]

let test_get_members_sorted () =
  let _clock, ledger, _client = make_service () in
  (* register out of alphabetical order; the wire response must not leak
     the registry's hash-table iteration order *)
  List.iter
    (fun n -> ignore (Ledger.new_member ledger ~name:n ~role:Roles.Regular_user))
    [ "zeta"; "alpha"; "mid" ];
  match roundtrip ledger (Service.Client.make_get_members ()) with
  | Some (Service.Members_r members) ->
      let names = List.map (fun (n, _, _) -> n) members in
      Alcotest.(check (list string)) "sorted by name"
        (List.sort String.compare names) names;
      Alcotest.(check bool) "all members present" true
        (List.for_all
           (fun n -> List.mem n names)
           [ "zeta"; "alpha"; "mid"; "svc-client" ])
  | _ -> Alcotest.fail "get_members did not return Members_r"

let members_suite = [ tc "get_members deterministic order" `Quick test_get_members_sorted ]

let test_append_batch_over_wire () =
  let clock, ledger, client = make_service () in
  Clock.advance_ms clock 10.;
  let entries =
    List.init 6 (fun i ->
        ( Bytes.of_string (Printf.sprintf "batch payload %d" i),
          [ "batch-clue" ],
          Clock.now clock ))
  in
  let req = Service.Client.make_append_batch client entries in
  let receipts =
    match roundtrip ledger req with
    | Some (Service.Receipts_r rs) -> rs
    | Some (Service.Error_r e) -> Alcotest.fail e
    | _ -> Alcotest.fail "unexpected response"
  in
  Alcotest.(check int) "one receipt per entry" 6 (List.length receipts);
  Alcotest.(check int) "committed" 6 (Ledger.size ledger);
  List.iteri
    (fun i (r : Receipt.t) ->
      Alcotest.(check int) (Printf.sprintf "jsn of entry %d" i) i r.Receipt.jsn;
      Alcotest.(check bool) "wire receipt verifies" true
        (Receipt.verify ~lsp_pub:(Ledger.lsp_public_key ledger) r))
    receipts;
  let report = Audit.run ~receipts ledger in
  Alcotest.(check bool) "audit ok" true report.Audit.ok

(* one bad signature anywhere must reject the WHOLE batch: nothing
   committed, no partial prefix *)
let test_append_batch_atomic_rejection () =
  let clock, ledger, client = make_service () in
  Clock.advance_ms clock 10.;
  let entries =
    List.init 4 (fun i ->
        ( Bytes.of_string (Printf.sprintf "atomic payload %d" i),
          [],
          Clock.now clock ))
  in
  let req = Service.Client.make_append_batch client entries in
  (* flip one byte inside the third entry's payload: framing survives,
     that entry's signature breaks *)
  let marker = Bytes.of_string "atomic payload 2" in
  let off =
    let rec find i =
      if i + Bytes.length marker > Bytes.length req then
        Alcotest.fail "payload marker not found in encoded request"
      else if Bytes.sub req i (Bytes.length marker) = marker then i
      else find (i + 1)
    in
    find 0
  in
  let tampered = Bytes.copy req in
  Bytes.set tampered (off + 7)
    (Char.chr (Char.code (Bytes.get tampered (off + 7)) lxor 1));
  (match roundtrip ledger tampered with
  | Some (Service.Error_r _) -> ()
  | Some (Service.Receipts_r _) -> Alcotest.fail "tampered batch accepted"
  | _ -> Alcotest.fail "unexpected response");
  Alcotest.(check int) "nothing committed" 0 (Ledger.size ledger);
  (* the untampered request still goes through afterwards *)
  match roundtrip ledger req with
  | Some (Service.Receipts_r rs) ->
      Alcotest.(check int) "all committed" 4 (List.length rs)
  | _ -> Alcotest.fail "clean batch rejected"

let batch_suite =
  [
    tc "append_batch over the wire" `Quick test_append_batch_over_wire;
    tc "batch with one bad signature rejected atomically" `Quick
      test_append_batch_atomic_rejection;
  ]

(* --- the per-domain encoding scratch under contention ------------------ *)

(* Every worker below encodes the same responses and digests at once:
   three systhreads on each of three domains, each yielding to its
   neighbours in the middle of a digest input, and each digest input
   holding a nested response encode.  One domain's scratch serves all of
   its threads, so without the busy flag a yield or the nested encode
   would rewind a writer that another caller is still filling.  Every
   answer must equal the reference computed beforehand, one at a time
   through fresh writers. *)
let test_scratch_under_contention () =
  let clock, ledger, client = make_service () in
  for i = 0 to 11 do
    Clock.advance_ms clock 10.;
    ignore
      (Service.handle ledger
         (Service.Client.make_append client
            ~clues:[ "c" ^ string_of_int (i mod 3) ]
            ~client_ts:(Clock.now clock)
            (Bytes.of_string (Printf.sprintf "contended %d" i))))
  done;
  let responses =
    Array.of_list
      (List.filter_map
         (fun req -> Service.Client.parse (Service.handle ledger req))
         [
           Service.Client.make_get_proof_bundle ~jsn:3;
           Service.Client.make_get_clue_bundle ~clue:"c1" ();
           Service.Client.make_get_receipt ~jsn:5;
           Service.Client.make_get_block ~height:1;
           Service.Client.make_get_members ();
           Service.Client.make_get_extension ~old_size:4;
         ])
  in
  let n = Array.length responses in
  let expected_resp = Array.map Service.encode_response responses in
  let payload i = Bytes.make (100 + (i * 9_000)) (Char.chr (65 + i)) in
  (* the digest input: a prefix, the i-th response encoded inside the
     digest's own fill, then a payload up to ~70 KB (past the cap) *)
  let fill ~nested i w =
    Wire.w_string w "contended";
    Wire.w_int w i;
    if nested then Thread.yield ();
    Wire.w_bytes w
      (if nested then Service.encode_response responses.(i mod n)
       else expected_resp.(i mod n));
    if nested then Thread.yield ();
    Wire.w_bytes w (payload i)
  in
  let expected_digest =
    Array.init 8 (fun i ->
        let w = Wire.writer () in
        fill ~nested:false i w;
        Hash.of_bytes (Sha256.digest_bytes (Wire.contents w)))
  in
  let bad = Atomic.make 0 in
  let work () =
    for round = 0 to 5 do
      for i = 0 to 7 do
        let k = (i + round) mod 8 in
        if not (Hash.equal (Wire.encode_digest (fill ~nested:true k))
                  expected_digest.(k))
        then Atomic.incr bad;
        if not (Bytes.equal
                  (Service.encode_response responses.(k mod n))
                  expected_resp.(k mod n))
        then Atomic.incr bad;
        Thread.yield ()
      done
    done
  in
  let threads_on_domain () =
    let ts = List.init 2 (fun _ -> Thread.create work ()) in
    work ();
    List.iter Thread.join ts
  in
  let domains = List.init 2 (fun _ -> Domain.spawn threads_on_domain) in
  threads_on_domain ();
  List.iter Domain.join domains;
  Alcotest.(check int) "answers that differ from the sequential reference" 0
    (Atomic.get bad)

let scratch_suite =
  [
    tc "encode scratch: systhreads, domains and nesting = sequential" `Quick
      test_scratch_under_contention;
  ]

let suite =
  base_suite @ fuzz_suite @ extension_suite @ members_suite @ batch_suite
  @ scratch_suite
