(* Unit tests for the smaller ledger-core modules: roles, crypto profiles,
   journal hashing, the wire codec, receipts and blocks. *)

open Ledger_crypto
open Ledger_storage
open Ledger_core
open Ledger_timenotary

let tc = Alcotest.test_case
let qcheck = QCheck_alcotest.to_alcotest

(* --- roles ------------------------------------------------------------- *)

let test_roles () =
  let reg = Roles.create_registry () in
  let _, pub_a = Ecdsa.generate ~seed:"a" in
  let _, pub_b = Ecdsa.generate ~seed:"b" in
  let a = Roles.register reg ~name:"a" ~role:Roles.Regular_user pub_a in
  let _b = Roles.register reg ~name:"b" ~role:Roles.Dba pub_b in
  Alcotest.(check int) "cardinal" 2 (Roles.cardinal reg);
  Alcotest.(check bool) "find by id" true (Roles.find reg a.Roles.id <> None);
  Alcotest.(check bool) "find by name" true (Roles.find_by_name reg "b" <> None);
  Alcotest.(check int) "role filter" 1 (List.length (Roles.with_role reg Roles.Dba));
  Alcotest.(check string) "role strings" "regulator"
    (Roles.role_to_string Roles.Regulator);
  Alcotest.check_raises "duplicate key rejected"
    (Invalid_argument "Roles.register: key already registered for a2") (fun () ->
      ignore (Roles.register reg ~name:"a2" ~role:Roles.Regular_user pub_a))

(* --- crypto profiles ----------------------------------------------------- *)

let test_crypto_profile_real () =
  let clock = Clock.create () in
  let priv, pub = Ecdsa.generate ~seed:"p" in
  let d = Hash.digest_string "m" in
  let s = Crypto_profile.sign Crypto_profile.Real clock ~priv ~pub d in
  Alcotest.(check bool) "real verifies" true
    (Crypto_profile.verify Crypto_profile.Real clock ~pub d s);
  Alcotest.(check int64) "real charges nothing" 0L (Clock.now clock);
  (* real signatures are genuine ECDSA *)
  Alcotest.(check bool) "interops with Ecdsa" true (Ecdsa.verify pub d s)

let test_crypto_profile_simulated () =
  let clock = Clock.create () in
  let profile = Crypto_profile.Simulated { sign_us = 30.; verify_us = 70. } in
  let priv, pub = Ecdsa.generate ~seed:"p" in
  let d = Hash.digest_string "m" in
  let s = Crypto_profile.sign profile clock ~priv ~pub d in
  Alcotest.(check int64) "sign charged" 30L (Clock.now clock);
  Alcotest.(check bool) "simulated verifies" true
    (Crypto_profile.verify profile clock ~pub d s);
  Alcotest.(check int64) "verify charged" 100L (Clock.now clock);
  (* binding: different digest or key fails *)
  Alcotest.(check bool) "wrong digest fails" false
    (Crypto_profile.verify profile clock ~pub (Hash.digest_string "x") s);
  let _, pub2 = Ecdsa.generate ~seed:"q" in
  Alcotest.(check bool) "wrong key fails" false
    (Crypto_profile.verify profile clock ~pub:pub2 d s)

(* --- journal hashing -------------------------------------------------------- *)

let sample_journal ?(kind = Journal.Normal) ?(payload = "payload") () =
  {
    Journal.jsn = 7;
    kind;
    client_id = Hash.digest_string "member";
    payload = Bytes.of_string payload;
    clues = [ "a"; "b" ];
    client_ts = 123L;
    server_ts = 456L;
    nonce = 9;
    request_hash = Hash.digest_string "request";
    client_sig = None;
    cosigners = [];
  }

let test_journal_tx_hash_sensitivity () =
  let base = Journal_codec.digest (sample_journal ()) in
  let variants =
    [
      ("payload", sample_journal ~payload:"payload2" ());
      ("jsn", { (sample_journal ()) with Journal.jsn = 8 });
      ("clues", { (sample_journal ()) with Journal.clues = [ "ab" ] });
      ("kind", sample_journal ~kind:(Journal.Occult
          { target_jsn = 1; retained_hash = Hash.zero }) ());
      ("server_ts", { (sample_journal ()) with Journal.server_ts = 457L });
    ]
  in
  List.iter
    (fun (what, j) ->
      Alcotest.(check bool) (what ^ " changes tx hash") false
        (Hash.equal base (Journal_codec.digest j)))
    variants;
  (* clue list framing is injective: ["ab"] vs ["a";"b"] differ *)
  let j1 = { (sample_journal ()) with Journal.clues = [ "ab" ] } in
  let j2 = { (sample_journal ()) with Journal.clues = [ "a"; "b" ] } in
  Alcotest.(check bool) "clue framing" false
    (Hash.equal (Journal_codec.digest j1) (Journal_codec.digest j2))

let test_request_digest () =
  let d ~nonce ~payload =
    Journal.request_digest ~ledger_uri:"ledger://x" ~kind_tag:"normal"
      ~payload:(Bytes.of_string payload) ~clues:[ "c" ] ~client_ts:1L ~nonce
  in
  Alcotest.(check bool) "nonce separates" false
    (Hash.equal (d ~nonce:1 ~payload:"p") (d ~nonce:2 ~payload:"p"));
  Alcotest.(check bool) "payload bound" false
    (Hash.equal (d ~nonce:1 ~payload:"p") (d ~nonce:1 ~payload:"q"));
  Alcotest.(check bool) "deterministic" true
    (Hash.equal (d ~nonce:1 ~payload:"p") (d ~nonce:1 ~payload:"p"))

(* --- codec -------------------------------------------------------------------- *)

let journals_for_codec () =
  let clock = Clock.create () in
  let tsa = Tsa.create ~endorse_rtt_ms:0. ~clock "codec-tsa" in
  let priv, _ = Ecdsa.generate ~seed:"codec" in
  let token = Tsa.endorse tsa (Hash.digest_string "digest") in
  [
    sample_journal ();
    { (sample_journal ()) with
      Journal.client_sig = Some (Ecdsa.sign priv (Hash.digest_string "r"));
      cosigners =
        [ (Hash.digest_string "c1", Ecdsa.sign priv (Hash.digest_string "r")) ] };
    sample_journal ~kind:(Journal.Time (Journal.Direct_tsa token)) ();
    sample_journal
      ~kind:(Journal.Time (Journal.Via_t_ledger
          { entry_index = 3; client_ts = 5L; digest = Hash.digest_string "d" })) ();
    sample_journal
      ~kind:(Journal.Purge
          { purge_upto = 10; pseudo_genesis_jsn = 11; survivors = [ 2; 5 ] }) ();
    sample_journal
      ~kind:(Journal.Occult
          { target_jsn = 4; retained_hash = Hash.digest_string "kept" }) ();
    sample_journal
      ~kind:(Journal.Pseudo_genesis
          { replaced_purge_jsn = 12; fam_commitment = Hash.digest_string "f";
            clue_root = Hash.digest_string "c";
            member_roster = Hash.digest_string "m" }) ();
    sample_journal ~payload:"" ();
  ]

let test_codec_roundtrip () =
  List.iteri
    (fun i j ->
      match Journal_codec.decode (Journal_codec.encode j) with
      | None -> Alcotest.failf "journal %d failed to decode" i
      | Some j' ->
          Alcotest.(check bool)
            (Printf.sprintf "journal %d tx hash stable" i)
            true
            (Hash.equal (Journal_codec.digest j) (Journal_codec.digest j'));
          Alcotest.(check int) "jsn" j.Journal.jsn j'.Journal.jsn;
          Alcotest.(check (list string)) "clues" j.Journal.clues j'.Journal.clues;
          Alcotest.(check string) "payload"
            (Bytes.to_string j.Journal.payload)
            (Bytes.to_string j'.Journal.payload))
    (journals_for_codec ())

let test_codec_rejects_corruption () =
  let j = List.nth (journals_for_codec ()) 1 in
  let enc = Journal_codec.encode j in
  (* truncation *)
  Alcotest.(check bool) "truncated" true
    (Journal_codec.decode (Bytes.sub enc 0 (Bytes.length enc - 3)) = None);
  (* trailing garbage *)
  Alcotest.(check bool) "trailing garbage" true
    (Journal_codec.decode (Bytes.cat enc (Bytes.of_string "x")) = None);
  (* bad magic *)
  let bad = Bytes.copy enc in
  Bytes.set bad 0 'X';
  Alcotest.(check bool) "bad magic" true (Journal_codec.decode bad = None);
  Alcotest.(check bool) "empty" true (Journal_codec.decode Bytes.empty = None)

let prop_codec_random_bytes_safe =
  QCheck.Test.make ~name:"codec never raises on random bytes" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_range 0 64))
    (fun s ->
      match Journal_codec.decode (Bytes.of_string s) with
      | Some _ | None -> true)

(* --- receipts / blocks ---------------------------------------------------------- *)

let test_receipt_signing () =
  let priv, pub = Ecdsa.generate ~seed:"lsp" in
  let r =
    Receipt.make ~lsp_priv:priv ~jsn:3 ~request_hash:(Hash.digest_string "r")
      ~tx_hash:(Hash.digest_string "t") ~block_hash:Hash.zero ~timestamp:99L
  in
  Alcotest.(check bool) "verifies" true (Receipt.verify ~lsp_pub:pub r);
  Alcotest.(check bool) "not final without block hash" false (Receipt.is_final r);
  let r2 = { r with Receipt.block_hash = Hash.digest_string "b" } in
  Alcotest.(check bool) "final with block hash" true (Receipt.is_final r2);
  Alcotest.(check bool) "field change breaks signature" false
    (Receipt.verify ~lsp_pub:pub { r with Receipt.jsn = 4 })

let test_block_hash_chain () =
  let mk height prev =
    {
      Block.height;
      start_jsn = height * 4;
      count = 4;
      prev_hash = prev;
      journal_commitment = Hash.digest_string "jc";
      clue_root = Hash.digest_string "cr";
      world_state_root = Hash.zero;
      tx_root = Hash.digest_string ("tx" ^ string_of_int height);
      timestamp = Int64.of_int height;
    }
  in
  let b0 = mk 0 Hash.zero in
  let b1 = mk 1 (Block.hash b0) in
  Alcotest.(check bool) "links" true (Block.links_to b0 b1);
  Alcotest.(check bool) "wrong prev" false
    (Block.links_to b0 { b1 with Block.prev_hash = Hash.zero });
  Alcotest.(check bool) "wrong height" false
    (Block.links_to b0 { b1 with Block.height = 2 });
  Alcotest.(check bool) "gap in jsns" false
    (Block.links_to b0 { b1 with Block.start_jsn = 5 });
  (* block hash covers the tx root *)
  Alcotest.(check bool) "hash covers content" false
    (Hash.equal (Block.hash b0)
       (Block.hash { b0 with Block.tx_root = Hash.zero }))

(* --- digest collisions ------------------------------------------------------ *)

(* Every digest lays its fields out with Wire: length-prefixed strings and
   lists, fixed-width ints.  A layout that joined decimal ints or
   ';'-separated clues gave equal digests for each pair below. *)

let test_request_digest_clue_split () =
  let d clues =
    Journal.request_digest ~ledger_uri:"ledger://x" ~kind_tag:"normal"
      ~payload:(Bytes.of_string "p") ~clues ~client_ts:1L ~nonce:1
  in
  Alcotest.(check bool) "[\"a;b\"] vs [\"a\"; \"b\"]" false
    (Hash.equal (d [ "a;b" ]) (d [ "a"; "b" ]))

let test_tx_hash_int_boundaries () =
  let j ~client_ts ~server_ts ~nonce =
    Journal_codec.digest
      { (sample_journal ()) with Journal.client_ts; server_ts; nonce }
  in
  Alcotest.(check bool) "(client_ts 1, server_ts 23) vs (12, 3)" false
    (Hash.equal
       (j ~client_ts:1L ~server_ts:23L ~nonce:9)
       (j ~client_ts:12L ~server_ts:3L ~nonce:9));
  Alcotest.(check bool) "(server_ts 23, nonce 4) vs (2, 34)" false
    (Hash.equal
       (j ~client_ts:1L ~server_ts:23L ~nonce:4)
       (j ~client_ts:1L ~server_ts:2L ~nonce:34));
  (* and that digest is the leaf the ledger commits *)
  let ledger =
    Ledger.create
      ~config:{ Ledger.default_config with crypto = Crypto_profile.default_simulated }
      ~clock:(Clock.create ()) ()
  in
  let member, priv =
    Ledger.new_member ledger ~name:"u" ~role:Roles.Regular_user
  in
  ignore
    (Ledger.append ledger ~member ~priv ~clues:[ "c" ] (Bytes.of_string "x"));
  Alcotest.(check bool) "the ledger's leaf is the codec digest" true
    (Hash.equal (Ledger.tx_hash_of ledger 0)
       (Journal_codec.digest (Ledger.journal ledger 0)))

let test_block_hash_int_boundaries () =
  let b ~height ~start_jsn =
    Block.hash
      { Block.height; start_jsn; count = 4; prev_hash = Hash.zero;
        journal_commitment = Hash.zero; clue_root = Hash.zero;
        world_state_root = Hash.zero; tx_root = Hash.zero; timestamp = 0L }
  in
  Alcotest.(check bool) "(height 1, start 23) vs (12, 3)" false
    (Hash.equal (b ~height:1 ~start_jsn:23) (b ~height:12 ~start_jsn:3))

let suite =
  [
    tc "roles registry" `Quick test_roles;
    tc "crypto profile: real" `Quick test_crypto_profile_real;
    tc "crypto profile: simulated" `Quick test_crypto_profile_simulated;
    tc "journal tx-hash sensitivity" `Quick test_journal_tx_hash_sensitivity;
    tc "request digest" `Quick test_request_digest;
    tc "codec roundtrip (all kinds)" `Quick test_codec_roundtrip;
    tc "codec corruption" `Quick test_codec_rejects_corruption;
    qcheck prop_codec_random_bytes_safe;
    tc "receipt signing" `Quick test_receipt_signing;
    tc "block hash chain" `Quick test_block_hash_chain;
    tc "collision: request digest of split clues" `Quick
      test_request_digest_clue_split;
    tc "collision: tx hash across int boundaries" `Quick
      test_tx_hash_int_boundaries;
    tc "collision: block hash across int boundaries" `Quick
      test_block_hash_int_boundaries;
  ]
