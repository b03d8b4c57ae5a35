(* Off-the-clock verification of every response against the client's own
   model: receipts against the requests that were signed, proofs against
   the preload receipts, scan rows against the preload clues. *)

open Ledger_crypto
open Ledger_core
open Ledger_merkle
open Ledger_cmtree
module RQ = Ledger_query.Range_query

exception Failed of string
(** a response that does not verify: the run is void *)

exception Refused of string
(** a well-formed [Error_r]: counted as a failed operation *)

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

type model = {
  lsp_pub : Ecdsa.public_key;
  tx : Hash.t array;  (** tx hash of preloaded jsn [i] *)
  by_clue : (string, (int * Hash.t) list) Hashtbl.t;  (** ascending jsn *)
  account_clues : string array;  (** byte-ordered *)
}

let parse b =
  match Service.decode_response b with
  | Some (Service.Error_r m) -> raise (Refused m)
  | Some r -> r
  | None -> fail "undecodable response"

let receipt ~lsp_pub ~digest (r : Receipt.t) =
  if not (Hash.equal r.Receipt.request_hash digest) then
    fail "receipt for jsn %d answers another request" r.Receipt.jsn;
  let d =
    Receipt.signing_digest ~jsn:r.Receipt.jsn ~request_hash:r.Receipt.request_hash
      ~tx_hash:r.Receipt.tx_hash ~block_hash:r.Receipt.block_hash
      ~timestamp:r.Receipt.timestamp
  in
  if not (Crypto_profile.check Crypto_profile.Real ~pub:lsp_pub d r.Receipt.lsp_sig)
  then fail "receipt for jsn %d: bad LSP signature" r.Receipt.jsn

(* An [Append] or [Append_batch] answer: one receipt per signed entry, in
   submission order, on consecutive jsns. *)
let write ~lsp_pub ~batch ~digests resp =
  let rs =
    match (parse resp, batch) with
    | Service.Receipt_r r, false -> [ r ]
    | Service.Receipts_r rs, true -> rs
    | _ -> fail "unexpected response to an append"
  in
  if List.length rs <> Array.length digests then
    fail "%d receipts for %d entries" (List.length rs) (Array.length digests);
  List.iteri
    (fun i (r : Receipt.t) ->
      receipt ~lsp_pub ~digest:digests.(i) r;
      if r.Receipt.jsn <> (List.hd rs).Receipt.jsn + i then
        fail "batch receipts are not on consecutive jsns")
    rs;
  rs

(* The preload answers, in submission order, define the model. *)
let preload ~lsp_pub (pre : Inputs.preload) responses =
  let n = Array.length pre.Inputs.clues in
  let tx = Array.make n Hash.zero in
  let by_clue = Hashtbl.create 1024 in
  let next = ref 0 in
  Array.iteri
    (fun f resp ->
      List.iter
        (fun (r : Receipt.t) ->
          if r.Receipt.jsn <> !next then
            fail "preload entry %d was committed as jsn %d" !next r.Receipt.jsn;
          tx.(!next) <- r.Receipt.tx_hash;
          let clue = pre.Inputs.clues.(!next) in
          let prev = Option.value (Hashtbl.find_opt by_clue clue) ~default:[] in
          Hashtbl.replace by_clue clue ((r.Receipt.jsn, r.Receipt.tx_hash) :: prev);
          incr next)
        (write ~lsp_pub ~batch:true ~digests:pre.Inputs.digests.(f) resp))
    responses;
  if !next <> n then fail "preload committed %d of %d entries" !next n;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) by_clue;
  { lsp_pub; tx; by_clue; account_clues = pre.Inputs.account_clues }

let proof model ~jsn resp =
  match parse resp with
  | Service.Proof_bundle_r { proof; commitment; size } ->
      if proof.Fam.jsn <> jsn || size <= jsn then
        fail "proof bundle for jsn %d answers jsn %d" jsn proof.Fam.jsn;
      if not (Fam.verify ~commitment ~leaf:model.tx.(jsn) proof) then
        fail "proof bundle for jsn %d does not verify" jsn
  | _ -> fail "unexpected response to get_proof_bundle"

let clue_entries model clue =
  Option.value (Hashtbl.find_opt model.by_clue clue) ~default:[]

let lineage model ~clue resp =
  match parse resp with
  | Service.Clue_bundle_r { proof = Some p; clue_root } ->
      let known = List.mapi (fun v (_, tx) -> (v, tx)) (clue_entries model clue) in
      let n = List.length known in
      if p.Cm_tree.clue <> clue || p.Cm_tree.version_range <> (0, n - 1)
         || p.Cm_tree.accumulator_proof.Range_proof.size <> n
      then fail "lineage of %s does not cover its %d receipts" clue n;
      if not (Cm_tree.verify_clue ~root:clue_root ~known p) then
        fail "lineage of %s does not verify" clue
  | Service.Clue_bundle_r { proof = None; _ } ->
      fail "service denies the lineage of %s" clue
  | _ -> fail "unexpected response to get_clue_bundle"

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* One complete scan: the pages of its last attempt, in order. *)
let scan model ~prefix pages =
  let pages =
    List.map
      (fun b ->
        match parse b with
        | Service.Query_page_r { page; query_root; epoch; _ } -> (page, query_root, epoch)
        | _ -> fail "unexpected response to query_page")
      pages
  in
  match pages with
  | [] -> fail "scan of %s has no pages" prefix
  | (_, root, epoch) :: _ ->
      List.iter
        (fun (_, r, e) ->
          if e <> epoch || not (Hash.equal r root) then
            fail "scan of %s crosses snapshots" prefix)
        pages;
      let rows =
        match
          RQ.verify_pages ~root ~spec:(RQ.Prefix prefix) ~page_size:Spec.page_size
            (List.map (fun (p, _, _) -> p) pages)
        with
        | Ok rows -> rows
        | Error e -> fail "scan of %s: %s" prefix e
      in
      let expected =
        List.filter (has_prefix ~prefix) (Array.to_list model.account_clues)
      in
      if List.length rows <> List.length expected then
        fail "scan of %s returned %d clues, expected %d" prefix (List.length rows)
          (List.length expected);
      List.iter2
        (fun (row : RQ.result_row) clue ->
          let entries = clue_entries model clue in
          if row.RQ.r_clue <> clue || row.RQ.r_total <> List.length entries
             || not
                  (List.equal
                     (fun (j, h) (j', h') -> j = j' && Hash.equal h h')
                     row.RQ.r_entries entries)
          then fail "scan of %s: row %s disagrees with the receipts" prefix clue)
        rows expected
