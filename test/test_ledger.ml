(* Integration tests for the LedgerDB kernel: append/receipts, existence
   and clue verification, blocks, time anchoring, purge and occult. *)

open Ledger_crypto
open Ledger_storage
open Ledger_core
open Ledger_timenotary

let tc = Alcotest.test_case

type env = {
  clock : Clock.t;
  ledger : Ledger.t;
  alice : Roles.member;
  alice_key : Ecdsa.private_key;
  bob : Roles.member;
  bob_key : Ecdsa.private_key;
  dba : Roles.member;
  dba_key : Ecdsa.private_key;
  regulator : Roles.member;
  regulator_key : Ecdsa.private_key;
}

let make_env ?(crypto = Crypto_profile.default_simulated) ?(block_size = 8)
    ?(fam_delta = 4) ?(with_notary = true) () =
  let clock = Clock.create () in
  let tsa =
    if with_notary then
      Some (Tsa.pool [ Tsa.create ~endorse_rtt_ms:1. ~clock "nts" ])
    else None
  in
  let t_ledger =
    match tsa with
    | Some pool -> Some (T_ledger.create ~clock ~tsa:pool ())
    | None -> None
  in
  let config =
    { Ledger.default_config with name = "test"; block_size; fam_delta; crypto }
  in
  let ledger = Ledger.create ~config ?t_ledger ?tsa ~clock () in
  let alice, alice_key = Ledger.new_member ledger ~name:"alice" ~role:Roles.Regular_user in
  let bob, bob_key = Ledger.new_member ledger ~name:"bob" ~role:Roles.Regular_user in
  let dba, dba_key = Ledger.new_member ledger ~name:"dba" ~role:Roles.Dba in
  let regulator, regulator_key =
    Ledger.new_member ledger ~name:"regulator" ~role:Roles.Regulator
  in
  { clock; ledger; alice; alice_key; bob; bob_key; dba; dba_key; regulator;
    regulator_key }

let append env ?(clues = []) who text =
  let member, priv =
    match who with
    | `Alice -> (env.alice, env.alice_key)
    | `Bob -> (env.bob, env.bob_key)
  in
  Clock.advance_ms env.clock 10.;
  Ledger.append env.ledger ~member ~priv ~clues (Bytes.of_string text)

let fill env n =
  List.init n (fun i ->
      append env
        ~clues:[ "asset-" ^ string_of_int (i mod 3) ]
        (if i mod 2 = 0 then `Alice else `Bob)
        (Printf.sprintf "payload %d" i))

(* --- append / receipts ------------------------------------------------------ *)

let test_append_and_receipts () =
  let env = make_env () in
  let receipts = fill env 20 in
  Alcotest.(check int) "size" 20 (Ledger.size env.ledger);
  let r0 = List.hd receipts in
  Alcotest.(check bool) "receipt verifies" true
    (Ledger.verify_receipt env.ledger r0);
  (* block 0 sealed after 8 journals: final receipt available *)
  let final = Ledger.get_receipt env.ledger 0 in
  Alcotest.(check bool) "final receipt has block hash" true (Receipt.is_final final);
  Alcotest.(check bool) "final receipt verifies" true
    (Ledger.verify_receipt env.ledger final);
  (* journal metadata *)
  let j = Ledger.journal env.ledger 5 in
  Alcotest.(check int) "jsn" 5 j.Journal.jsn;
  Alcotest.(check (list string)) "clues" [ "asset-2" ] j.Journal.clues;
  Alcotest.(check (option string)) "payload" (Some "payload 5")
    (Option.map Bytes.to_string (Ledger.payload env.ledger 5))

let test_append_rejects_unknown_member () =
  let env = make_env () in
  let stranger_priv, stranger_pub = Ecdsa.generate ~seed:"stranger" in
  let stranger =
    { Roles.name = "stranger"; role = Roles.Regular_user; pub = stranger_pub;
      id = Ecdsa.public_key_id stranger_pub }
  in
  Alcotest.check_raises "unknown member rejected"
    (Invalid_argument "Ledger.append: unknown member") (fun () ->
      ignore
        (Ledger.append env.ledger ~member:stranger ~priv:stranger_priv
           (Bytes.of_string "x")))

let test_multisigned_append () =
  let env = make_env () in
  let r =
    Ledger.append env.ledger ~member:env.alice ~priv:env.alice_key
      ~cosigners:[ (env.bob, env.bob_key); (env.dba, env.dba_key) ]
      (Bytes.of_string "contract")
  in
  let j = Ledger.journal env.ledger r.Receipt.jsn in
  Alcotest.(check int) "two cosigners" 2 (List.length j.Journal.cosigners)

(* A cosigner registered only on another ledger is refused before any
   clock charge or state change: the audit would fail such a journal
   with "cosigner: unknown member". *)
let test_append_rejects_unknown_cosigner () =
  let env = make_env () in
  ignore (fill env 3);
  let other = make_env () in
  let outsider, outsider_key =
    Ledger.new_member other.ledger ~name:"outsider" ~role:Roles.Regular_user
  in
  let size = Ledger.size env.ledger in
  let commitment = Ledger.commitment env.ledger in
  let now = Clock.now env.clock in
  Alcotest.check_raises "unknown cosigner rejected"
    (Invalid_argument "Ledger.append: unknown cosigner") (fun () ->
      ignore
        (Ledger.append env.ledger ~member:env.alice ~priv:env.alice_key
           ~cosigners:[ (env.bob, env.bob_key); (outsider, outsider_key) ]
           (Bytes.of_string "x")));
  Alcotest.(check int) "size unchanged" size (Ledger.size env.ledger);
  Alcotest.(check string) "commitment unchanged" (Hash.to_hex commitment)
    (Hash.to_hex (Ledger.commitment env.ledger));
  Alcotest.(check int64) "no clock charge" now (Clock.now env.clock);
  Alcotest.(check bool) "audit still passes" true
    (Audit.run env.ledger).Audit.ok

(* --- blocks ------------------------------------------------------------------ *)

let test_block_chain () =
  let env = make_env ~block_size:4 () in
  ignore (fill env 14);
  Ledger.seal_block env.ledger;
  Alcotest.(check int) "blocks" 4 (Ledger.block_count env.ledger);
  let blocks = Ledger.blocks env.ledger in
  let rec chained = function
    | a :: (b :: _ as rest) -> Block.links_to a b && chained rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "hash chain holds" true (chained blocks);
  let b1 = Ledger.block env.ledger 1 in
  Alcotest.(check int) "block 1 start" 4 b1.Block.start_jsn;
  Alcotest.(check int) "block 1 count" 4 b1.Block.count;
  (* last partial block has 2 journals *)
  let b3 = Ledger.block env.ledger 3 in
  Alcotest.(check int) "partial block" 2 b3.Block.count

(* --- existence verification -------------------------------------------------- *)

let test_existence_verification () =
  let env = make_env () in
  ignore (fill env 30);
  for jsn = 0 to 29 do
    let p = Ledger.get_proof env.ledger jsn in
    Alcotest.(check bool)
      (Printf.sprintf "jsn %d" jsn)
      true
      (Ledger.verify_existence env.ledger ~jsn ~payload_digest:None p)
  done;
  (* with payload binding *)
  let digest = Hash.digest_bytes (Bytes.of_string "payload 7") in
  let p = Ledger.get_proof env.ledger 7 in
  Alcotest.(check bool) "payload digest binds" true
    (Ledger.verify_existence env.ledger ~jsn:7 ~payload_digest:(Some digest) p);
  Alcotest.(check bool) "wrong payload digest fails" false
    (Ledger.verify_existence env.ledger ~jsn:7
       ~payload_digest:(Some (Hash.digest_string "forged"))
       p)

let test_anchored_existence () =
  let env = make_env () in
  ignore (fill env 40);
  let anchor = Ledger.make_anchor env.ledger in
  ignore (fill env 20);
  for jsn = 0 to 59 do
    let p = Ledger.get_proof_anchored env.ledger anchor jsn in
    Alcotest.(check bool)
      (Printf.sprintf "anchored jsn %d" jsn)
      true
      (Ledger.verify_anchored env.ledger anchor
         ~leaf:(Ledger.tx_hash_of env.ledger jsn)
         p)
  done

(* --- clues -------------------------------------------------------------------- *)

let test_clue_verification () =
  let env = make_env () in
  ignore (fill env 30);
  Alcotest.(check int) "clue entries" 10 (Ledger.clue_entries env.ledger "asset-1");
  Alcotest.(check (list int)) "clue jsns" [ 1; 4; 7 ]
    (List.filteri (fun i _ -> i < 3) (Ledger.clue_jsns env.ledger "asset-1"));
  let proof = Option.get (Ledger.prove_clue env.ledger ~clue:"asset-1" ()) in
  Alcotest.(check bool) "client clue verify" true
    (Ledger.verify_clue_client env.ledger proof);
  Alcotest.(check bool) "server clue verify" true
    (Ledger.verify_clue_server env.ledger ~clue:"asset-1");
  Alcotest.(check bool) "unknown clue" true
    (Ledger.prove_clue env.ledger ~clue:"nope" () = None);
  (* version-range proof *)
  let range = Option.get (Ledger.prove_clue env.ledger ~clue:"asset-1" ~first:2 ~last:5 ()) in
  Alcotest.(check bool) "range clue verify" true
    (Ledger.verify_clue_client env.ledger range)

(* --- time anchoring ------------------------------------------------------------ *)

let test_time_anchoring () =
  let env = make_env () in
  ignore (fill env 5);
  (match Ledger.anchor_via_t_ledger env.ledger with
  | Ok j -> (
      match j.Journal.kind with
      | Journal.Time (Journal.Via_t_ledger { digest; _ }) ->
          Alcotest.(check bool) "anchored digest is pre-anchor commitment" true
            (Hash.equal digest (Hash.of_bytes (Hash.to_bytes digest)))
      | _ -> Alcotest.fail "expected T-Ledger time journal")
  | Error _ -> Alcotest.fail "T-Ledger submission rejected");
  let j = Ledger.anchor_via_tsa env.ledger in
  (match j.Journal.kind with
  | Journal.Time (Journal.Direct_tsa token) ->
      let pool = Option.get (Ledger.tsa_pool env.ledger) in
      Alcotest.(check bool) "TSA token verifies" true (Tsa.pool_verify pool token)
  | _ -> Alcotest.fail "expected direct TSA journal");
  Alcotest.(check int) "two time journals" 2
    (List.length (Ledger.time_journals env.ledger))

let test_anchor_without_notary () =
  let env = make_env ~with_notary:false () in
  Alcotest.check_raises "no T-Ledger"
    (Invalid_argument "Ledger.anchor_via_t_ledger: no T-Ledger configured")
    (fun () -> ignore (Ledger.anchor_via_t_ledger env.ledger));
  Alcotest.check_raises "no TSA"
    (Invalid_argument "Ledger.anchor_via_tsa: no TSA pool configured")
    (fun () -> ignore (Ledger.anchor_via_tsa env.ledger))

(* --- occult ---------------------------------------------------------------------- *)

let occult_signers env = [ (env.dba, env.dba_key); (env.regulator, env.regulator_key) ]

let test_occult_sync () =
  let env = make_env () in
  ignore (fill env 12);
  let tx_before = Ledger.tx_hash_of env.ledger 3 in
  (match
     Ledger.occult env.ledger ~target_jsn:3 ~mode:Ledger.Sync
       ~signers:(occult_signers env) ~reason:"pii"
   with
  | Ok j -> (
      match j.Journal.kind with
      | Journal.Occult { target_jsn; retained_hash } ->
          Alcotest.(check int) "target" 3 target_jsn;
          Alcotest.(check bool) "retained hash = tx hash" true
            (Hash.equal retained_hash tx_before)
      | _ -> Alcotest.fail "expected occult journal")
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "occulted" true (Ledger.is_occulted env.ledger 3);
  Alcotest.(check bool) "payload gone" true (Ledger.payload env.ledger 3 = None);
  (* Protocol 2: ledger remains verifiable — existence proof still works *)
  let p = Ledger.get_proof env.ledger 3 in
  Alcotest.(check bool) "retained hash still provable" true
    (Ledger.verify_existence env.ledger ~jsn:3 ~payload_digest:None p);
  (* other journals untouched *)
  Alcotest.(check bool) "others intact" true (Ledger.payload env.ledger 4 <> None)

let test_occult_async_and_reorganize () =
  let env = make_env () in
  ignore (fill env 10);
  (match
     Ledger.occult env.ledger ~target_jsn:2 ~mode:Ledger.Async
       ~signers:(occult_signers env) ~reason:"gdpr"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "marked deleted" true (Ledger.is_occulted env.ledger 2);
  (* async: payload physically present until reorganization *)
  Alcotest.(check bool) "payload still on disk" true
    (Ledger.payload env.ledger 2 <> None);
  Alcotest.(check int) "reorganize erases one" 1 (Ledger.reorganize env.ledger);
  Alcotest.(check bool) "payload erased" true (Ledger.payload env.ledger 2 = None);
  Alcotest.(check int) "reorganize idempotent" 0 (Ledger.reorganize env.ledger)

let test_occult_prerequisites () =
  let env = make_env () in
  ignore (fill env 5);
  (match
     Ledger.occult env.ledger ~target_jsn:1 ~mode:Ledger.Sync
       ~signers:[ (env.dba, env.dba_key) ] ~reason:"x"
   with
  | Ok _ -> Alcotest.fail "occult without regulator accepted"
  | Error _ -> ());
  (match
     Ledger.occult env.ledger ~target_jsn:1 ~mode:Ledger.Sync
       ~signers:[ (env.regulator, env.regulator_key) ] ~reason:"x"
   with
  | Ok _ -> Alcotest.fail "occult without DBA accepted"
  | Error _ -> ());
  (* double occult rejected *)
  (match
     Ledger.occult env.ledger ~target_jsn:1 ~mode:Ledger.Sync
       ~signers:(occult_signers env) ~reason:"x"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match
    Ledger.occult env.ledger ~target_jsn:1 ~mode:Ledger.Sync
      ~signers:(occult_signers env) ~reason:"x"
  with
  | Ok _ -> Alcotest.fail "double occult accepted"
  | Error _ -> ()

(* --- purge ------------------------------------------------------------------------ *)

let purge_signers env upto =
  let affected = Ledger.affected_members env.ledger ~upto_jsn:upto in
  (env.dba, env.dba_key)
  :: List.map
       (fun (m : Roles.member) ->
         if m.Roles.name = "alice" then (m, env.alice_key)
         else if m.Roles.name = "bob" then (m, env.bob_key)
         else Alcotest.fail ("unexpected affected member " ^ m.Roles.name))
       affected

let test_purge () =
  let env = make_env () in
  ignore (fill env 20);
  let request = { Ledger.upto_jsn = 10; survivors = [ 4 ]; erase_fam_nodes = true } in
  (match Ledger.purge env.ledger ~request ~signers:(purge_signers env 10) with
  | Ok pj -> (
      match pj.Journal.kind with
      | Journal.Purge { purge_upto; pseudo_genesis_jsn; survivors } ->
          Alcotest.(check int) "upto" 10 purge_upto;
          Alcotest.(check (list int)) "survivors" [ 4 ] survivors;
          (* double link: pseudo genesis immediately precedes purge journal *)
          Alcotest.(check int) "double link" (pj.Journal.jsn - 1) pseudo_genesis_jsn;
          let pg = Option.get (Ledger.pseudo_genesis env.ledger) in
          (match pg.Journal.kind with
          | Journal.Pseudo_genesis snapshot ->
              Alcotest.(check int) "back link" pj.Journal.jsn
                snapshot.Journal.replaced_purge_jsn
          | _ -> Alcotest.fail "expected pseudo genesis")
      | _ -> Alcotest.fail "expected purge journal")
  | Error e -> Alcotest.fail e);
  (* purged payloads gone, survivor retrievable *)
  Alcotest.(check bool) "purged payload gone" true (Ledger.payload env.ledger 3 = None);
  Alcotest.(check (option string)) "survivor kept" (Some "payload 4")
    (Option.map Bytes.to_string (Ledger.read_survivor env.ledger 4));
  Alcotest.(check (list int)) "survival stream" [ 4 ] (Ledger.survival_jsns env.ledger);
  (* journals after the purge point still verifiable *)
  let p = Ledger.get_proof env.ledger 15 in
  Alcotest.(check bool) "post-purge existence" true
    (Ledger.verify_existence env.ledger ~jsn:15 ~payload_digest:None p)

let test_purge_requires_all_members () =
  let env = make_env () in
  ignore (fill env 10);
  let request = { Ledger.upto_jsn = 10; survivors = []; erase_fam_nodes = false } in
  (* missing bob's signature *)
  match
    Ledger.purge env.ledger ~request
      ~signers:[ (env.dba, env.dba_key); (env.alice, env.alice_key) ]
  with
  | Ok _ -> Alcotest.fail "purge without all affected members accepted"
  | Error msg ->
      let contains hay needle =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names the missing member" true (contains msg "bob")

let test_purge_bad_range () =
  let env = make_env () in
  ignore (fill env 3);
  let request = { Ledger.upto_jsn = 99; survivors = []; erase_fam_nodes = false } in
  match Ledger.purge env.ledger ~request ~signers:(purge_signers env 3) with
  | Ok _ -> Alcotest.fail "out-of-range purge accepted"
  | Error _ -> ()

(* --- real-crypto end-to-end -------------------------------------------------------- *)

let test_real_crypto_roundtrip () =
  let env = make_env ~crypto:Crypto_profile.Real () in
  let r = append env ~clues:[ "real" ] `Alice "signed for real" in
  Alcotest.(check bool) "receipt verifies with real ECDSA" true
    (Receipt.verify ~lsp_pub:(Ledger.lsp_public_key env.ledger) r);
  let j = Ledger.journal env.ledger r.Receipt.jsn in
  Alcotest.(check bool) "client signature real" true
    (Ecdsa.verify env.alice.Roles.pub j.Journal.request_hash
       (Option.get j.Journal.client_sig))

let base_suite =
  [
    tc "append and receipts" `Quick test_append_and_receipts;
    tc "unknown member rejected" `Quick test_append_rejects_unknown_member;
    tc "unknown cosigner rejected" `Quick test_append_rejects_unknown_cosigner;
    tc "multi-signed append" `Quick test_multisigned_append;
    tc "block chain" `Quick test_block_chain;
    tc "existence verification" `Quick test_existence_verification;
    tc "anchored existence" `Quick test_anchored_existence;
    tc "clue verification" `Quick test_clue_verification;
    tc "time anchoring" `Quick test_time_anchoring;
    tc "anchoring without notary" `Quick test_anchor_without_notary;
    tc "occult sync" `Quick test_occult_sync;
    tc "occult async + reorganize" `Quick test_occult_async_and_reorganize;
    tc "occult prerequisites" `Quick test_occult_prerequisites;
    tc "purge" `Quick test_purge;
    tc "purge requires members" `Quick test_purge_requires_all_members;
    tc "purge bad range" `Quick test_purge_bad_range;
    tc "real crypto roundtrip" `Slow test_real_crypto_roundtrip;
  ]

(* --- world-state --------------------------------------------------------------- *)

let test_world_state () =
  let env = make_env () in
  Alcotest.(check bool) "empty world state" true
    (Ledger.world_state_root env.ledger = None);
  ignore (fill env 12);
  Alcotest.(check int) "one state leaf per clue update" 12
    (Ledger.world_state_size env.ledger);
  Alcotest.(check bool) "root exists" true
    (Ledger.world_state_root env.ledger <> None);
  (* verify every state transition of a clue *)
  let jsns = Ledger.clue_jsns env.ledger "asset-1" in
  List.iteri
    (fun version jsn ->
      match Ledger.prove_state_update env.ledger ~clue:"asset-1" ~version with
      | None -> Alcotest.fail "missing state proof"
      | Some (proof_jsn, path) ->
          Alcotest.(check int) "proof names the journal" jsn proof_jsn;
          Alcotest.(check bool) "state update verifies" true
            (Ledger.verify_state_update env.ledger ~clue:"asset-1"
               ~tx:(Ledger.tx_hash_of env.ledger jsn) path))
    jsns;
  (* wrong tx is rejected; out-of-range version is None *)
  let _, path = Option.get (Ledger.prove_state_update env.ledger ~clue:"asset-1" ~version:0) in
  Alcotest.(check bool) "wrong tx rejected" false
    (Ledger.verify_state_update env.ledger ~clue:"asset-1"
       ~tx:(Hash.digest_string "forged") path);
  Alcotest.(check bool) "bad version" true
    (Ledger.prove_state_update env.ledger ~clue:"asset-1" ~version:99 = None);
  Alcotest.(check bool) "unknown clue" true
    (Ledger.prove_state_update env.ledger ~clue:"nope" ~version:0 = None);
  (* the latest block commits the world-state root *)
  Ledger.seal_block env.ledger;
  let b = Ledger.block env.ledger (Ledger.block_count env.ledger - 1) in
  Alcotest.(check bool) "block commits world state" true
    (Hash.equal b.Block.world_state_root
       (Option.get (Ledger.world_state_root env.ledger)))

let world_state_suite = [ tc "world state" `Quick test_world_state ]



let test_compact_storage () =
  let env = make_env () in
  ignore (fill env 12);
  (match
     Ledger.occult env.ledger ~target_jsn:3 ~mode:Ledger.Sync
       ~signers:[ (env.dba, env.dba_key); (env.regulator, env.regulator_key) ]
       ~reason:"pii"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let reclaimed = Ledger.compact_storage env.ledger in
  Alcotest.(check int) "one slot reclaimed" 1 reclaimed;
  (* all live payloads still readable after remapping *)
  for jsn = 0 to Ledger.size env.ledger - 1 do
    match (Ledger.journal env.ledger jsn).Journal.kind with
    | Journal.Normal when jsn <> 3 && jsn < 12 ->
        Alcotest.(check (option string))
          (Printf.sprintf "payload %d survives compaction" jsn)
          (Some (Printf.sprintf "payload %d" jsn))
          (Option.map Bytes.to_string (Ledger.payload env.ledger jsn))
    | _ -> ()
  done;
  Alcotest.(check bool) "occulted stays erased" true
    (Ledger.payload env.ledger 3 = None);
  (* audit still clean *)
  Alcotest.(check bool) "audit after compaction" true (Audit.run env.ledger).Audit.ok

let compaction_suite = [ tc "compact storage" `Quick test_compact_storage ]



let test_multi_clue_journal () =
  (* one journal can carry several clues: it appears in each clue's
     lineage and contributes one world-state transition per clue *)
  let env = make_env () in
  let r =
    Ledger.append env.ledger ~member:env.alice ~priv:env.alice_key
      ~clues:[ "shipment"; "invoice"; "customs" ]
      (Bytes.of_string "multi-clue record")
  in
  List.iter
    (fun clue ->
      Alcotest.(check (list int)) (clue ^ " lineage") [ r.Receipt.jsn ]
        (Ledger.clue_jsns env.ledger clue);
      Alcotest.(check bool) (clue ^ " verifies") true
        (Ledger.verify_clue_server env.ledger ~clue))
    [ "shipment"; "invoice"; "customs" ];
  Alcotest.(check int) "three state transitions" 3
    (Ledger.world_state_size env.ledger);
  (* client-side verification works per clue *)
  let proof = Option.get (Ledger.prove_clue env.ledger ~clue:"invoice" ()) in
  Alcotest.(check bool) "client verify on shared journal" true
    (Ledger.verify_clue_client env.ledger proof);
  (* jsn range lookup through the skip list *)
  Alcotest.(check (list int)) "range lookup" [ r.Receipt.jsn ]
    (Ledger.clue_jsns_in_range env.ledger "customs" ~lo:0 ~hi:10);
  Alcotest.(check (list int)) "empty range" []
    (Ledger.clue_jsns_in_range env.ledger "customs" ~lo:5 ~hi:10)

(* --- duplicate clues ---------------------------------------------------------- *)

(* An entry that names one clue twice is refused before any clock charge
   or state change, through every entry point; the clue's lineage still
   verifies afterwards.  Without the refusal the journal was stored and
   accumulated, then indexed twice under the clue, so its CM-Tree
   entries and its cSL disagreed and every later lineage proof of the
   clue failed. *)
let signed_request ?nonce env ~clues text =
  let payload = Bytes.of_string text in
  let client_ts = Clock.now env.clock in
  let nonce = Option.value nonce ~default:(700 + Ledger.size env.ledger) in
  let request_hash =
    Journal.request_digest ~ledger_uri:(Ledger.uri env.ledger)
      ~kind_tag:"normal" ~payload ~clues ~client_ts ~nonce
  in
  let signature =
    Crypto_profile.sign_pure Crypto_profile.default_simulated
      ~priv:env.alice_key ~pub:env.alice.Roles.pub request_hash
  in
  (payload, clues, client_ts, nonce, signature)

(* [refuse env] must leave size and clock where they were; then one more
   entry under "y" commits and y's lineage proof verifies. *)
let check_duplicate_refused refuse =
  let env = make_env () in
  ignore (append env ~clues:[ "y" ] `Alice "y first");
  let size = Ledger.size env.ledger and now = Clock.now env.clock in
  refuse env;
  Alcotest.(check int) "size unchanged" size (Ledger.size env.ledger);
  Alcotest.(check int64) "clock unchanged" now (Clock.now env.clock);
  ignore (append env ~clues:[ "y" ] `Bob "y second");
  Ledger.seal_block env.ledger;
  Alcotest.(check (list int)) "clue jsns" [ 0; 1 ]
    (Ledger.clue_jsns env.ledger "y");
  Alcotest.(check int) "clue entries" 2 (Ledger.clue_entries env.ledger "y");
  let proof = Option.get (Ledger.prove_clue env.ledger ~clue:"y" ()) in
  Alcotest.(check bool) "lineage verifies" true
    (Ledger.verify_clue_client env.ledger proof)

let test_duplicate_clue_append () =
  check_duplicate_refused (fun env ->
      Alcotest.check_raises "append refused"
        (Invalid_argument "Ledger.append: duplicate clue") (fun () ->
          ignore
            (Ledger.append env.ledger ~member:env.alice ~priv:env.alice_key
               ~clues:[ "y"; "y" ] (Bytes.of_string "twice"))))

let test_duplicate_clue_append_batch () =
  check_duplicate_refused (fun env ->
      Alcotest.check_raises "append_batch refused"
        (Invalid_argument "Ledger.append_batch: duplicate clue (entry 1)")
        (fun () ->
          ignore
            (Ledger.append_batch env.ledger ~member:env.alice
               ~priv:env.alice_key
               [ (Bytes.of_string "ok", [ "y" ]);
                 (Bytes.of_string "twice", [ "y"; "x"; "y" ]) ])))

let test_duplicate_clue_append_signed () =
  check_duplicate_refused (fun env ->
      let payload, clues, client_ts, nonce, signature =
        signed_request env ~clues:[ "y"; "y" ] "twice"
      in
      Alcotest.(check (result reject string)) "append_signed refused"
        (Error "append: duplicate clue")
        (Result.map ignore
           (Ledger.append_signed env.ledger ~member_id:env.alice.Roles.id
              ~payload ~clues ~client_ts ~nonce ~signature)))

let test_duplicate_clue_append_signed_batch () =
  check_duplicate_refused (fun env ->
      let ok = signed_request env ~clues:[ "y" ] "ok" in
      let twice = signed_request env ~clues:[ "z"; "y"; "y" ] "twice" in
      Alcotest.(check (result reject string)) "append_signed_batch refused"
        (Error "append_batch: duplicate clue (entry 1)")
        (Result.map ignore
           (Ledger.append_signed_batch env.ledger
              ~member_id:env.alice.Roles.id [ ok; twice ])))

let test_duplicate_clue_service () =
  check_duplicate_refused (fun env ->
      let client =
        Service.Client.create ~crypto:Crypto_profile.default_simulated
          ~ledger_uri:(Ledger.uri env.ledger) ~member:env.alice
          ~priv:env.alice_key ()
      in
      let frame =
        Service.Client.make_append client ~clues:[ "y"; "y" ]
          ~client_ts:(Clock.now env.clock) (Bytes.of_string "twice")
      in
      match Service.Client.parse (Service.handle env.ledger frame) with
      | Some (Service.Error_r msg) ->
          Alcotest.(check string) "refusal" "append: duplicate clue" msg
      | _ -> Alcotest.fail "expected a refusal")

let multi_clue_suite = [ tc "multi-clue journal" `Quick test_multi_clue_journal ]

let duplicate_clue_suite =
  [ tc "duplicate clue: append refused, lineage intact" `Quick
      test_duplicate_clue_append;
    tc "duplicate clue: append_batch refused, lineage intact" `Quick
      test_duplicate_clue_append_batch;
    tc "duplicate clue: append_signed refused, lineage intact" `Quick
      test_duplicate_clue_append_signed;
    tc "duplicate clue: append_signed_batch refused, lineage intact" `Quick
      test_duplicate_clue_append_signed_batch;
    tc "duplicate clue: Service.handle frame refused, lineage intact" `Quick
      test_duplicate_clue_service ]



(* --- over-long clues --------------------------------------------------------- *)

(* A clue longer than 2048 bytes is refused like a repeated one, through
   every entry point, before any clock charge or state change.  Without
   the refusal it committed, and the query index keyed it as a trie path
   of more than 4096 nibbles, which the proof decoder refuses: every
   query page over it (here, prefix "a") stopped decoding. *)
let long_clue = "a" ^ String.make 2099 'x'

let prefix_page_decodes env =
  let frame =
    Service.Client.make_query_page ~spec:(Ledger_query.Range_query.Prefix "a")
      ~page_size:8 ()
  in
  match Service.decode_response (Service.handle env.ledger frame) with
  | Some (Service.Query_page_r _) -> ()
  | _ -> Alcotest.fail "prefix page does not decode"

let check_long_clue_refused refuse =
  check_duplicate_refused (fun env ->
      refuse env;
      prefix_page_decodes env)

let test_long_clue_append () =
  check_long_clue_refused (fun env ->
      Alcotest.check_raises "append refused"
        (Invalid_argument "Ledger.append: clue longer than 2048 bytes")
        (fun () ->
          ignore
            (Ledger.append env.ledger ~member:env.alice ~priv:env.alice_key
               ~clues:[ "y"; long_clue ] (Bytes.of_string "long"))));
  (* 2048 bytes is admitted, and its page still decodes *)
  let env = make_env () in
  ignore
    (Ledger.append env.ledger ~member:env.alice ~priv:env.alice_key
       ~clues:[ String.sub long_clue 0 2048 ] (Bytes.of_string "longest"));
  Alcotest.(check int) "2048-byte clue committed" 1 (Ledger.size env.ledger);
  prefix_page_decodes env

let test_long_clue_append_batch () =
  check_long_clue_refused (fun env ->
      Alcotest.check_raises "append_batch refused"
        (Invalid_argument
           "Ledger.append_batch: clue longer than 2048 bytes (entry 1)")
        (fun () ->
          ignore
            (Ledger.append_batch env.ledger ~member:env.alice
               ~priv:env.alice_key
               [ (Bytes.of_string "ok", [ "y" ]);
                 (Bytes.of_string "long", [ long_clue ]) ])))

let test_long_clue_append_signed () =
  check_long_clue_refused (fun env ->
      let payload, clues, client_ts, nonce, signature =
        signed_request env ~clues:[ long_clue ] "long"
      in
      Alcotest.(check (result reject string)) "append_signed refused"
        (Error "append: clue longer than 2048 bytes")
        (Result.map ignore
           (Ledger.append_signed env.ledger ~member_id:env.alice.Roles.id
              ~payload ~clues ~client_ts ~nonce ~signature)))

let test_long_clue_append_signed_batch () =
  check_long_clue_refused (fun env ->
      let ok = signed_request env ~clues:[ "y" ] "ok" in
      let long = signed_request env ~clues:[ "z"; long_clue ] "long" in
      Alcotest.(check (result reject string)) "append_signed_batch refused"
        (Error "append_batch: clue longer than 2048 bytes (entry 1)")
        (Result.map ignore
           (Ledger.append_signed_batch env.ledger
              ~member_id:env.alice.Roles.id [ ok; long ])))

let test_long_clue_service () =
  check_long_clue_refused (fun env ->
      let client =
        Service.Client.create ~crypto:Crypto_profile.default_simulated
          ~ledger_uri:(Ledger.uri env.ledger) ~member:env.alice
          ~priv:env.alice_key ()
      in
      let frame =
        Service.Client.make_append client ~clues:[ long_clue ]
          ~client_ts:(Clock.now env.clock) (Bytes.of_string "long")
      in
      match Service.Client.parse (Service.handle env.ledger frame) with
      | Some (Service.Error_r msg) ->
          Alcotest.(check string) "refusal" "append: clue longer than 2048 bytes"
            msg
      | _ -> Alcotest.fail "expected a refusal")

let long_clue_suite =
  [ tc "long clue: append refused, pages decode" `Quick test_long_clue_append;
    tc "long clue: append_batch refused, pages decode" `Quick
      test_long_clue_append_batch;
    tc "long clue: append_signed refused, pages decode" `Quick
      test_long_clue_append_signed;
    tc "long clue: append_signed_batch refused, pages decode" `Quick
      test_long_clue_append_signed_batch;
    tc "long clue: Service.handle frame refused, pages decode" `Quick
      test_long_clue_service ]

(* --- negative nonces ----------------------------------------------------------- *)

(* A client-chosen nonce below zero is refused like a repeated clue,
   through every remote entry point, before any clock charge or state
   change.  Without the refusal a correctly signed request with nonce -1
   committed, and the journal codec's shift loop wrote that int as bytes
   other than its fixed-width two's complement. *)
let test_negative_nonce_append_signed () =
  check_duplicate_refused (fun env ->
      let payload, clues, client_ts, nonce, signature =
        signed_request ~nonce:(-1) env ~clues:[ "y" ] "negative"
      in
      Alcotest.(check (result reject string)) "append_signed refused"
        (Error "append: negative nonce")
        (Result.map ignore
           (Ledger.append_signed env.ledger ~member_id:env.alice.Roles.id
              ~payload ~clues ~client_ts ~nonce ~signature)))

let test_negative_nonce_append_signed_batch () =
  check_duplicate_refused (fun env ->
      let ok = signed_request env ~clues:[ "y" ] "ok" in
      let negative = signed_request ~nonce:min_int env ~clues:[ "z" ] "negative" in
      Alcotest.(check (result reject string)) "append_signed_batch refused"
        (Error "append_batch: negative nonce (entry 1)")
        (Result.map ignore
           (Ledger.append_signed_batch env.ledger
              ~member_id:env.alice.Roles.id [ ok; negative ])))

let test_negative_nonce_service () =
  check_duplicate_refused (fun env ->
      let payload, clues, client_ts, nonce, signature =
        signed_request ~nonce:(-7) env ~clues:[ "y" ] "negative"
      in
      let frame =
        Service.encode_request
          (Service.Append
             { member_id = env.alice.Roles.id; payload; clues; client_ts;
               nonce; signature })
      in
      match Service.Client.parse (Service.handle env.ledger frame) with
      | Some (Service.Error_r msg) ->
          Alcotest.(check string) "refusal" "append: negative nonce" msg
      | _ -> Alcotest.fail "expected a refusal")

let negative_nonce_suite =
  [ tc "negative nonce: append_signed refused, lineage intact" `Quick
      test_negative_nonce_append_signed;
    tc "negative nonce: append_signed_batch refused, lineage intact" `Quick
      test_negative_nonce_append_signed_batch;
    tc "negative nonce: Service.handle frame refused, lineage intact" `Quick
      test_negative_nonce_service ]

let test_list_tx () =
  let env = make_env () in
  ignore (fill env 15);
  (match Ledger.anchor_via_t_ledger env.ledger with Ok _ -> () | Error _ -> assert false);
  (* all *)
  Alcotest.(check int) "no filter" 16
    (List.length (Ledger.list_tx env.ledger ()));
  (* by clue: served from the skip list *)
  Alcotest.(check (list int)) "by clue" [ 1; 4; 7; 10; 13 ]
    (Ledger.list_tx env.ledger
       ~filter:{ Ledger.any_tx with by_clue = Some "asset-1" } ());
  (* by member: alice appended the even journals *)
  let alices =
    Ledger.list_tx env.ledger
      ~filter:{ Ledger.any_tx with by_member = Some env.alice.Roles.id } ()
  in
  Alcotest.(check int) "alice's journals" 8 (List.length alices);
  Alcotest.(check bool) "all even" true (List.for_all (fun j -> j mod 2 = 0) alices);
  (* by kind *)
  Alcotest.(check int) "time journals" 1
    (List.length
       (Ledger.list_tx env.ledger
          ~filter:{ Ledger.any_tx with kinds = Some [ "time" ] } ()));
  (* temporal window *)
  let t5 = (Ledger.journal env.ledger 5).Journal.server_ts in
  let t10 = (Ledger.journal env.ledger 10).Journal.server_ts in
  Alcotest.(check (list int)) "window" [ 5; 6; 7; 8; 9 ]
    (Ledger.list_tx env.ledger
       ~filter:{ Ledger.any_tx with after_ts = Some t5; before_ts = Some t10 } ());
  (* limit *)
  Alcotest.(check (list int)) "limit" [ 0; 1; 2 ]
    (Ledger.list_tx env.ledger ~limit:3 ());
  (* composite: clue + member *)
  Alcotest.(check (list int)) "clue and member" [ 4; 10 ]
    (Ledger.list_tx env.ledger
       ~filter:{ Ledger.any_tx with by_clue = Some "asset-1";
                 by_member = Some env.alice.Roles.id } ())

let list_tx_suite = [ tc "list_tx filters" `Quick test_list_tx ]



let test_append_batch () =
  let env = make_env () in
  let entries =
    List.init 10 (fun i ->
        (Bytes.of_string (Printf.sprintf "batch %d" i), [ "b-clue" ]))
  in
  let receipts =
    Ledger.append_batch env.ledger ~member:env.alice ~priv:env.alice_key entries
  in
  Alcotest.(check int) "ten receipts" 10 (List.length receipts);
  Alcotest.(check int) "ten journals" 10 (Ledger.size env.ledger);
  List.iter
    (fun (r : Receipt.t) ->
      Alcotest.(check bool) "batch receipt final" true (Receipt.is_final r);
      Alcotest.(check bool) "batch receipt verifies" true
        (Ledger.verify_receipt env.ledger r))
    receipts;
  Alcotest.(check int) "clue updated" 10 (Ledger.clue_entries env.ledger "b-clue");
  Alcotest.(check bool) "audit after batch" true (Audit.run env.ledger).Audit.ok

let batch_suite = [ tc "append batch" `Quick test_append_batch ]



let test_member_ca () =
  let clock = Clock.create () in
  let ca_priv, ca_pub = Ecdsa.generate ~seed:"member-ca" in
  let config =
    { Ledger.default_config with name = "ca-test"; block_size = 4;
      fam_delta = 3; crypto = Crypto_profile.default_simulated;
      member_ca = Some ca_pub }
  in
  let ledger = Ledger.create ~config ~clock () in
  (* uncertified registration rejected *)
  let _, stray_pub = Ecdsa.generate ~seed:"stray" in
  (try
     ignore (Ledger.register_member ledger ~name:"stray" ~role:Roles.Regular_user stray_pub);
     Alcotest.fail "uncertified member accepted"
   with Invalid_argument _ -> ());
  (* a certificate from the wrong CA is rejected *)
  let rogue_priv, _ = Ecdsa.generate ~seed:"rogue-ca" in
  let bad_cert = Roles.certify ~ca_priv:rogue_priv stray_pub in
  (try
     ignore
       (Ledger.register_member ledger ~certificate:bad_cert ~name:"stray"
          ~role:Roles.Regular_user stray_pub);
     Alcotest.fail "rogue certificate accepted"
   with Invalid_argument _ -> ());
  (* proper certification works end to end *)
  let member, key = Ledger.new_member ~ca_priv ledger ~name:"certified" ~role:Roles.Regular_user in
  Alcotest.(check bool) "certificate recorded" true
    (Roles.certificate_of (Ledger.registry ledger) member.Roles.id <> None);
  for i = 0 to 5 do
    Clock.advance_ms clock 10.;
    ignore (Ledger.append ledger ~member ~priv:key (Bytes.of_string (string_of_int i)))
  done;
  let report = Audit.run ledger in
  Alcotest.(check bool) "certified ledger audits clean" true report.Audit.ok;
  (* the audit verifies certificates: forging the roster breaks it *)
  let forged = Roles.certify ~ca_priv:rogue_priv member.Roles.pub in
  Roles.record_certificate (Ledger.registry ledger) forged;
  let report = Audit.run ledger in
  Alcotest.(check bool) "forged certificate caught" false report.Audit.ok

let ca_suite = [ tc "member CA certification" `Quick test_member_ca ]

let suite =
  base_suite @ world_state_suite @ compaction_suite @ multi_clue_suite
  @ list_tx_suite @ batch_suite @ ca_suite @ duplicate_clue_suite
  @ long_clue_suite @ negative_nonce_suite
