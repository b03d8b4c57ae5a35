(* The benchmark's verifier must reject every corruption a server or the
   network could introduce.  Each case answers real requests from an
   in-process ledger, corrupts one answer, and expects [Check.Failed],
   which voids a run. *)

open Bench_lib
open Ledger_crypto
open Ledger_core
open Ledger_net
module RQ = Ledger_query.Range_query

(* --- corruptions ------------------------------------------------------------ *)

let decode b =
  match Service.decode_response b with
  | Some r -> r
  | None -> invalid_arg "undecodable response"

(* a proof bundle whose commitment is not the one its proof hashes to *)
let proof_bundle b =
  match decode b with
  | Service.Proof_bundle_r { proof; size; _ } ->
      Service.encode_response
        (Service.Proof_bundle_r { proof; size; commitment = Hash.digest_string "forged" })
  | _ -> invalid_arg "not a proof bundle"

let flip_sig (r : Receipt.t) =
  let b = Ecdsa.signature_to_bytes r.Receipt.lsp_sig in
  Bytes.set_uint8 b 63 (Bytes.get_uint8 b 63 lxor 1);
  match Ecdsa.signature_of_bytes b with
  | Some lsp_sig -> { r with Receipt.lsp_sig }
  | None -> invalid_arg "flip_sig"

(* the first receipt of an append answer with one signature byte flipped *)
let receipt b =
  match decode b with
  | Service.Receipt_r r -> Service.encode_response (Service.Receipt_r (flip_sig r))
  | Service.Receipts_r (r :: rest) ->
      Service.encode_response (Service.Receipts_r (flip_sig r :: rest))
  | _ -> invalid_arg "not an append answer"

(* pages of one scan, in order *)
let drop_page = function
  | p0 :: _ :: rest -> p0 :: rest
  | _ -> invalid_arg "fewer than two pages"

let swap_pages = function
  | p0 :: p1 :: rest -> p1 :: p0 :: rest
  | _ -> invalid_arg "fewer than two pages"

let unframe frame =
  let d = Net_framing.create_decoder () in
  Net_framing.feed d frame ~pos:0 ~len:(Bytes.length frame);
  match Net_framing.next d with
  | Net_framing.Frame p -> p
  | _ -> failwith "unframe"

(* a verify-workload ledger with its preload committed, and the model *)
let fixture =
  lazy
    (let spec = Spec.make Spec.Verify ~seconds:10 ~quick:true in
     let env = Inputs.env spec ~seed:3 in
     let pre = Inputs.preload env in
     let ledger = Server.make_ledger ~name:env.Inputs.lname in
     let resps = Array.map (fun f -> Service.handle ledger (unframe f)) pre.Inputs.frames in
     (env, pre, ledger, Check.preload ~lsp_pub:env.Inputs.lsp_pub pre resps))

let rejects name f =
  match f () with
  | () -> Alcotest.failf "%s: the corrupted answer was accepted" name
  | exception Check.Failed _ -> ()

let proof_answer ledger jsn =
  Option.get (Service.handle_read ledger (Service.Client.make_get_proof_bundle ~jsn))

let append env ledger =
  let req =
    Service.Client.make_append env.Inputs.clients.(5) ~clues:[ "t/x" ] ~client_ts:1L
      (Bytes.of_string "payload")
  in
  (Inputs.digests_of_request env.Inputs.uri req, Service.handle ledger req)

(* every page of one scan, cursor-chained and pinned to the first epoch *)
let scan_pages ledger prefix =
  let spec = RQ.Prefix prefix in
  let rec go after pin acc =
    let resp =
      Option.get
        (Service.handle_read ledger
           (Service.Client.make_query_page ~spec ?after ?pin ~page_size:Spec.page_size ()))
    in
    match Service.decode_response resp with
    | Some (Service.Query_page_r { page; epoch; _ }) -> (
        match page.RQ.cursor with
        | None -> List.rev (resp :: acc)
        | Some c -> go (Some c) (Some epoch) (resp :: acc))
    | _ -> Alcotest.fail "scan page refused"
  in
  go None None []

let test_clean () =
  let env, _, ledger, model = Lazy.force fixture in
  Check.proof model ~jsn:7 (proof_answer ledger 7);
  let clue = model.Check.account_clues.(3) in
  Check.lineage model ~clue
    (Option.get (Service.handle_read ledger (Service.Client.make_get_clue_bundle ~clue ())));
  let pages = scan_pages ledger "acct/0" in
  Alcotest.(check bool) "multi-page scan" true (List.length pages > 1);
  Check.scan model ~prefix:"acct/0" pages;
  let digests, resp = append env ledger in
  ignore (Check.write ~lsp_pub:env.Inputs.lsp_pub ~batch:false ~digests resp)

let test_tampered_proof () =
  let _, _, ledger, model = Lazy.force fixture in
  rejects "proof" (fun () -> Check.proof model ~jsn:9 (proof_bundle (proof_answer ledger 9)))

let test_flipped_receipt () =
  let env, _, ledger, _ = Lazy.force fixture in
  let digests, resp = append env ledger in
  rejects "receipt" (fun () ->
      ignore
        (Check.write ~lsp_pub:env.Inputs.lsp_pub ~batch:false ~digests (receipt resp)))

let test_dropped_page () =
  let _, _, ledger, model = Lazy.force fixture in
  let pages = scan_pages ledger "acct/0" in
  rejects "drop-page" (fun () -> Check.scan model ~prefix:"acct/0" (drop_page pages))

let test_reordered_pages () =
  let _, _, ledger, model = Lazy.force fixture in
  let pages = scan_pages ledger "acct/0" in
  rejects "swap-pages" (fun () -> Check.scan model ~prefix:"acct/0" (swap_pages pages))

let test_mismatched_answers () =
  let env, _, ledger, model = Lazy.force fixture in
  (* two pipelined answers handed to each other's request *)
  let a = proof_answer ledger 11 and b = proof_answer ledger 12 in
  rejects "mismatch (proofs)" (fun () -> Check.proof model ~jsn:11 b);
  rejects "mismatch (proofs, other)" (fun () -> Check.proof model ~jsn:12 a);
  let d1, r1 = append env ledger in
  let _, r2 = append env ledger in
  ignore r1;
  rejects "mismatch (receipts)" (fun () ->
      ignore (Check.write ~lsp_pub:env.Inputs.lsp_pub ~batch:false ~digests:d1 r2))

let () =
  Alcotest.run "benchmark-checker"
    [ ( "verifier",
        [ Alcotest.test_case "clean answers verify" `Quick test_clean;
          Alcotest.test_case "tampered proof bundle" `Quick test_tampered_proof;
          Alcotest.test_case "receipt with a flipped signature byte" `Quick
            test_flipped_receipt;
          Alcotest.test_case "dropped scan page" `Quick test_dropped_page;
          Alcotest.test_case "reordered scan pages" `Quick test_reordered_pages;
          Alcotest.test_case "answer matched to the wrong request" `Quick
            test_mismatched_answers ] ) ]
