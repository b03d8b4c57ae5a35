open Ledger_crypto
open Ledger_merkle

type status = Healthy | Degraded | Compromised

let status_to_string = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Compromised -> "compromised"

type t = {
  name : string;
  lsp_pub : Ecdsa.public_key;
  mutable receipts : Receipt.t list; (* newest first *)
  mutable anchor : (Fam.anchor * Hash.t) option;
  mutable status : status;
  mutable transient_faults : int;
}

let create ~name ~lsp_pub =
  { name; lsp_pub; receipts = []; anchor = None; status = Healthy;
    transient_faults = 0 }

(* --- health -------------------------------------------------------------

   Transient transport faults degrade the client (it keeps retrying and
   recovers); a cryptographic verification failure compromises it
   permanently — there is no retry that can make a bad proof good, and a
   client that "recovered" from one would be retrying the LSP's lie into
   acceptance. *)

let status t = t.status
let transient_faults t = t.transient_faults

let note_transport_fault t =
  t.transient_faults <- t.transient_faults + 1;
  Ledger_obs.Metrics.incr "client_transport_faults_total";
  if t.status = Healthy then t.status <- Degraded

let note_recovery t =
  if t.status = Degraded then begin
    t.status <- Healthy;
    Ledger_obs.Metrics.incr "client_recoveries_total"
  end

let note_verification_failure t =
  Ledger_obs.Metrics.incr "client_verification_failures_total";
  t.status <- Compromised

let remember_receipt t r = t.receipts <- r :: t.receipts
let receipts t = t.receipts

let receipt_for t ~jsn =
  List.find_opt (fun (r : Receipt.t) -> r.Receipt.jsn = jsn) t.receipts

let adopt_anchor t ~anchor ~commitment = t.anchor <- Some (anchor, commitment)
let anchor t = t.anchor

let anchored_upto t =
  match t.anchor with Some (a, _) -> Fam.anchor_size a | None -> 0

let check_existence t ~jsn ~leaf ~current_commitment proof =
  let ok =
    match t.anchor with
    | Some (a, _) -> Fam.verify_anchored a ~current_commitment ~leaf proof
    | None -> (
        (* without an anchor only full chained proofs are meaningful *)
        match proof with
        | Fam.Beyond_anchor p -> Fam.verify ~commitment:current_commitment ~leaf p
        | Fam.Within_sealed _ -> false)
  in
  Ledger_obs.Audit_log.record ~verifier:t.name (Journal jsn)
    (if ok then Ledger_obs.Audit_log.Verified
     else Ledger_obs.Audit_log.Repudiated "client existence check failed");
  ok

let check_receipt_against t ~ledger_tx_hash ~jsn =
  let verdict =
    match receipt_for t ~jsn with
    | None -> `No_receipt
    | Some r ->
        if not (Receipt.verify ~lsp_pub:t.lsp_pub r) then `Bad_signature
        else begin
          match ledger_tx_hash jsn with
          | Some tx when Hash.equal tx r.Receipt.tx_hash -> `Ok
          | Some _ | None -> `Repudiated
        end
  in
  (match verdict with
  | `No_receipt -> () (* no attempt was possible, nothing to audit *)
  | `Ok -> Ledger_obs.Audit_log.record ~verifier:t.name (Receipt jsn) Verified
  | `Bad_signature ->
      Ledger_obs.Audit_log.record ~verifier:t.name (Receipt jsn)
        (Repudiated "receipt signature invalid")
  | `Repudiated ->
      Ledger_obs.Audit_log.record ~verifier:t.name (Receipt jsn)
        (Repudiated "journal no longer matches receipt"));
  verdict

let stale t ~current_size = current_size > anchored_upto t

let check_growth t ~delta ~new_size ~new_commitment proof =
  match t.anchor with
  | None -> false
  | Some (anchor, _) ->
      let ok =
        Fam.verify_extension ~delta ~old_size:(Fam.anchor_size anchor)
          ~old_peaks:(Fam.anchor_peaks anchor) ~new_size ~new_commitment proof
      in
      Ledger_obs.Audit_log.record ~verifier:t.name
        (Extension { old_size = Fam.anchor_size anchor; new_size })
        (if ok then Ledger_obs.Audit_log.Verified
         else Ledger_obs.Audit_log.Repudiated "extension proof failed");
      ok

(* --- self-healing remote checks ------------------------------------------ *)

let check_receipt_remote t ~transport ?policy ?(seed = 0) ~clock ~jsn () =
  match receipt_for t ~jsn with
  | None -> Ok `No_receipt
  | Some _ -> (
      match
        Transport.request_expect ?policy ~seed
          ~on_retry:(fun ~attempt:_ ~reason:_ -> note_transport_fault t)
          ~clock
          ~decode:(function
            | Service.Journal_r { tx; _ } -> Some tx
            | _ -> None)
          transport
          (Service.Client.make_get_journal ~jsn)
      with
      | Error (Transport.Refused msg) ->
          (* the client holds a receipt for this jsn; a service refusing to
             produce the journal is repudiation evidence, not a transient
             fault *)
          note_verification_failure t;
          Ledger_obs.Audit_log.record ~verifier:t.name (Receipt jsn)
            (Repudiated ("service refused journal: " ^ msg));
          Ok `Repudiated
      | Error (Transport.Transport e) ->
          (* transport exhausted: stay degraded, conclude nothing — the
             receipt is neither confirmed nor repudiated *)
          note_transport_fault t;
          Ledger_obs.Audit_log.record ~verifier:t.name (Receipt jsn)
            (Degraded (Transport.error_to_string e));
          Error e
      | Ok tx ->
          let verdict =
            check_receipt_against t ~ledger_tx_hash:(fun _ -> Some tx) ~jsn
          in
          (match verdict with
          | `Ok -> note_recovery t
          | `Bad_signature | `Repudiated -> note_verification_failure t
          | `No_receipt -> ());
          Ok verdict)
