open Ledger_crypto
open Ledger_merkle
open Ledger_timenotary

let log = Logs.Src.create "ledgerdb.audit" ~doc:"Dasein audit findings"

module Log = (val Logs.src_log log : Logs.LOG)

type factor = What | When | Who | Chain

type failure = { jsn : int option; factor : factor; message : string }

type report = {
  ok : bool;
  journals_checked : int;
  blocks_checked : int;
  time_anchors_checked : int;
  signatures_checked : int;
  what_seconds : float;
  when_seconds : float;
  who_seconds : float;
  failures : failure list;
}

let factor_to_string = function
  | What -> "what"
  | When -> "when"
  | Who -> "who"
  | Chain -> "chain"

type ctx = {
  ledger : Ledger.t;
  from_jsn : int;
  upto_jsn : int;
  mutable failures : failure list;
  mutable signatures : int;
  mutable anchors : int;
  mutable blocks : int;
}

let fail ctx ?jsn factor message =
  Log.warn (fun m ->
      m "[%s]%s %s"
        (factor_to_string factor)
        (match jsn with Some j -> Printf.sprintf " jsn=%d" j | None -> "")
        message);
  ctx.failures <- { jsn; factor; message } :: ctx.failures

(* Recompute the tx-hash of a journal from its stored content.  For an
   occulted journal (payload gone) Protocol 2 applies: the retained hash —
   which the ledger keeps as the accumulator leaf — stands in. *)
let recomputed_tx ctx (j : Journal.t) =
  if Ledger.is_occulted ctx.ledger j.Journal.jsn then
    Ledger.tx_hash_of ctx.ledger j.Journal.jsn
  else Journal_codec.digest j

(* --- who ----------------------------------------------------------------- *)

let member_pub ctx id =
  if Hash.equal id (Ecdsa.public_key_id (Ledger.lsp_public_key ctx.ledger)) then
    Some (Ledger.lsp_public_key ctx.ledger)
  else
    Option.map
      (fun m -> m.Roles.pub)
      (Roles.find (Ledger.registry ctx.ledger) id)

let check_signature ctx ?jsn ~what pub digest signature =
  ctx.signatures <- ctx.signatures + 1;
  if not (Ledger.verify_with_profile ctx.ledger ~pub digest signature) then
    fail ctx ?jsn Who (what ^ ": signature verification failed")

let check_cosigners ctx (j : Journal.t) =
  List.iter
    (fun (id, signature) ->
      match member_pub ctx id with
      | None -> fail ctx ~jsn:j.Journal.jsn Who "cosigner: unknown member"
      | Some pub ->
          check_signature ctx ~jsn:j.Journal.jsn ~what:"cosigner" pub
            j.Journal.request_hash signature)
    j.Journal.cosigners

let cosigner_has_role ctx (j : Journal.t) role =
  List.exists
    (fun (id, _) ->
      match Roles.find (Ledger.registry ctx.ledger) id with
      | Some m -> m.Roles.role = role
      | None -> false)
    j.Journal.cosigners

let check_member_certificate ctx ~jsn id =
  match (Ledger.config ctx.ledger).Ledger.member_ca with
  | None -> ()
  | Some ca_pub ->
      if not (Hash.equal id (Ecdsa.public_key_id (Ledger.lsp_public_key ctx.ledger)))
      then begin
        let registry = Ledger.registry ctx.ledger in
        match (Roles.find registry id, Roles.certificate_of registry id) with
        | Some m, Some cert ->
            ctx.signatures <- ctx.signatures + 1;
            if not (Roles.verify_certificate ~ca_pub m.Roles.pub cert) then
              fail ctx ~jsn Who "member certificate invalid"
        | Some _, None -> fail ctx ~jsn Who "member has no CA certificate"
        | None, _ -> ()
      end

let who_pass ctx receipts =
  for jsn = ctx.from_jsn to ctx.upto_jsn - 1 do
    let j = Ledger.journal ctx.ledger jsn in
    check_member_certificate ctx ~jsn j.Journal.client_id;
    (* pi_c verification re-derives the request hash from the payload, so
       its cost scales with payload size (the Fig. 7 who sweep). *)
    (if not (Ledger.is_occulted ctx.ledger jsn) then begin
       let expected =
         Journal.request_digest ~ledger_uri:(Ledger.uri ctx.ledger)
           ~kind_tag:(Journal.kind_tag j.Journal.kind)
           ~payload:j.Journal.payload ~clues:j.Journal.clues
           ~client_ts:j.Journal.client_ts ~nonce:j.Journal.nonce
       in
       if not (Hash.equal expected j.Journal.request_hash) then
         fail ctx ~jsn Who "client: request hash does not bind the payload"
     end);
    (match (j.Journal.client_sig, member_pub ctx j.Journal.client_id) with
    | Some signature, Some pub ->
        check_signature ctx ~jsn ~what:"client (pi_c)" pub
          j.Journal.request_hash signature
    | Some _, None -> fail ctx ~jsn Who "client: issuer not in registry"
    | None, _ -> fail ctx ~jsn Who "client: journal is unsigned");
    check_cosigners ctx j;
    (* step 1: mutation-journal prerequisites *)
    (match j.Journal.kind with
    | Journal.Purge _ ->
        if not (cosigner_has_role ctx j Roles.Dba) then
          fail ctx ~jsn Who "purge journal: DBA signature missing"
    | Journal.Occult _ ->
        if not (cosigner_has_role ctx j Roles.Dba) then
          fail ctx ~jsn Who "occult journal: DBA signature missing";
        if not (cosigner_has_role ctx j Roles.Regulator) then
          fail ctx ~jsn Who "occult journal: regulator signature missing"
    | Journal.Normal | Journal.Time _ | Journal.Pseudo_genesis _ -> ())
  done;
  (* step 5: client-held LSP receipts *)
  List.iter
    (fun (r : Receipt.t) ->
      ctx.signatures <- ctx.signatures + 1;
      if not (Ledger.verify_receipt ctx.ledger r) then
        fail ctx ~jsn:r.Receipt.jsn Who "receipt: LSP signature invalid"
      else if
        r.Receipt.jsn < Ledger.size ctx.ledger
        && not
             (Hash.equal r.Receipt.tx_hash
                (Ledger.tx_hash_of ctx.ledger r.Receipt.jsn))
      then
        fail ctx ~jsn:r.Receipt.jsn Who
          "receipt: tx-hash no longer matches the ledger (repudiation)")
    receipts

(* --- when ---------------------------------------------------------------- *)

let when_pass ctx =
  let prev_ts = ref Int64.min_int in
  for jsn = ctx.from_jsn to ctx.upto_jsn - 1 do
    let j = Ledger.journal ctx.ledger jsn in
    if Int64.compare j.Journal.server_ts !prev_ts < 0 then
      fail ctx ~jsn When "timestamps: server_ts not monotone";
    prev_ts := j.Journal.server_ts;
    match j.Journal.kind with
    | Journal.Time (Journal.Direct_tsa token) -> (
        ctx.anchors <- ctx.anchors + 1;
        match Ledger.tsa_pool ctx.ledger with
        | None -> fail ctx ~jsn When "time journal: no TSA pool to verify against"
        | Some pool ->
            (match Tsa.pool_find pool token.Tsa.tsa_id with
            | None ->
                fail ctx ~jsn When "time journal: unknown TSA authority"
            | Some authority ->
                if not (Tsa.verify_token_with_chain authority token) then
                  fail ctx ~jsn When
                    "time journal: TSA token or certificate chain invalid");
            if Int64.compare token.Tsa.timestamp j.Journal.server_ts < 0 then
              fail ctx ~jsn When
                "time journal: TSA timestamp earlier than submission")
    | Journal.Time (Journal.Via_t_ledger { entry_index; client_ts = _; digest })
      -> (
        ctx.anchors <- ctx.anchors + 1;
        match Ledger.t_ledger ctx.ledger with
        | None -> fail ctx ~jsn When "time journal: no T-Ledger configured"
        | Some tl -> (
            if entry_index < 0 || entry_index >= T_ledger.entry_count tl then
              fail ctx ~jsn When "time journal: T-Ledger entry out of range"
            else begin
              let entry = T_ledger.entry tl entry_index in
              if not (Hash.equal entry.T_ledger.digest digest) then
                fail ctx ~jsn When
                  "time journal: T-Ledger entry digest mismatch";
              let path = T_ledger.prove_entry tl entry_index in
              if
                not
                  (T_ledger.verify_entry ~root:(T_ledger.root tl) ~entry path)
              then
                fail ctx ~jsn When
                  "time journal: T-Ledger existence proof failed"
            end;
            match T_ledger.verify_entry_time tl entry_index with
            | Some (Some _, _) | Some (None, Some _) -> ()
            | Some (None, None) ->
                fail ctx ~jsn When
                  "time journal: no verified TSA anchor brackets the entry"
            | None -> ()))
    | Journal.Normal | Journal.Purge _ | Journal.Occult _
    | Journal.Pseudo_genesis _ -> ()
  done

(* --- what ---------------------------------------------------------------- *)

(* Full replay from genesis: rebuild the fam accumulation from recomputed
   tx-hashes and compare against every anchored digest (steps 3–4). *)
let what_replay ctx =
  let delta = (Ledger.config ctx.ledger).Ledger.fam_delta in
  let replay = Fam.create ~delta in
  for jsn = 0 to ctx.upto_jsn - 1 do
    let j = Ledger.journal ctx.ledger jsn in
    (* anchored digests were taken *before* the time journal was added *)
    (match j.Journal.kind with
    | Journal.Time (Journal.Direct_tsa token) ->
        if
          Fam.size replay > 0
          && not (Hash.equal token.Tsa.digest (Fam.commitment replay))
        then
          fail ctx ~jsn What
            "replay: TSA-anchored digest diverges from reconstruction"
    | Journal.Time (Journal.Via_t_ledger { digest; _ }) ->
        if
          Fam.size replay > 0
          && not (Hash.equal digest (Fam.commitment replay))
        then
          fail ctx ~jsn What
            "replay: T-Ledger-anchored digest diverges from reconstruction"
    | Journal.Normal | Journal.Purge _ | Journal.Occult _
    | Journal.Pseudo_genesis _ -> ());
    let tx = recomputed_tx ctx j in
    if not (Hash.equal tx (Ledger.tx_hash_of ctx.ledger jsn)) then
      fail ctx ~jsn What "replay: recomputed tx-hash differs from ledger leaf";
    ignore (Fam.append replay tx)
  done;
  if ctx.upto_jsn = Ledger.size ctx.ledger && Fam.size replay > 0 then
    if not (Hash.equal (Fam.commitment replay) (Ledger.commitment ctx.ledger))
    then fail ctx What "replay: final commitment mismatch"

(* Post-purge path (Protocol 1): journals are checked by fam existence
   proofs against the live commitment instead of a genesis replay. *)
let what_by_proofs ctx =
  for jsn = ctx.from_jsn to ctx.upto_jsn - 1 do
    let j = Ledger.journal ctx.ledger jsn in
    let tx = recomputed_tx ctx j in
    if not (Hash.equal tx (Ledger.tx_hash_of ctx.ledger jsn)) then
      fail ctx ~jsn What "proofs: recomputed tx-hash differs from ledger leaf";
    let proof = Ledger.get_proof ctx.ledger jsn in
    if
      not
        (Fam.verify
           ~commitment:(Ledger.commitment ctx.ledger)
           ~leaf:tx proof)
    then fail ctx ~jsn What "proofs: fam existence proof failed"
  done

let check_blocks ctx =
  let blocks = Ledger.blocks ctx.ledger in
  let prev = ref None in
  List.iter
    (fun (b : Block.t) ->
      let overlaps =
        b.Block.start_jsn < ctx.upto_jsn
        && b.Block.start_jsn + b.Block.count > ctx.from_jsn
      in
      if overlaps then begin
        ctx.blocks <- ctx.blocks + 1;
        (* recompute the block's transaction root *)
        let txs =
          List.init b.Block.count (fun k ->
              Ledger.tx_hash_of ctx.ledger (b.Block.start_jsn + k))
        in
        if not (Hash.equal (Merkle_tree.root (Merkle_tree.build txs)) b.Block.tx_root)
        then
          fail ctx Chain
            (Printf.sprintf "block %d: tx root mismatch" b.Block.height);
        (* step 4: boundary verification across adjacent blocks *)
        match !prev with
        | Some p when not (Block.links_to p b) ->
            fail ctx Chain
              (Printf.sprintf "block %d: hash chain broken" b.Block.height)
        | Some _ | None -> ()
      end;
      prev := Some b)
    blocks

(* --- driver ---------------------------------------------------------------- *)

let run ?from_jsn ?upto_jsn ?before_ts ?(receipts = []) ledger =
  (* temporal predicate (§V): translate a timestamp bound into a jsn
     bound — journals are committed in server_ts order *)
  let ts_upto =
    match before_ts with
    | None -> None
    | Some bound ->
        let n = Ledger.size ledger in
        let rec first_at_or_after jsn =
          if jsn >= n then n
          else if
            Int64.compare (Ledger.journal ledger jsn).Journal.server_ts bound
            >= 0
          then jsn
          else first_at_or_after (jsn + 1)
        in
        Some (first_at_or_after 0)
  in
  let upto_jsn =
    match (upto_jsn, ts_upto) with
    | Some a, Some b -> Some (min a b)
    | Some a, None -> Some a
    | None, Some b -> Some b
    | None, None -> None
  in
  let from_jsn =
    match from_jsn with
    | Some f -> f
    | None -> (
        match Ledger.pseudo_genesis ledger with
        | Some pg -> pg.Journal.jsn
        | None -> 0)
  in
  let upto_jsn = Option.value upto_jsn ~default:(Ledger.size ledger) in
  let ctx =
    { ledger; from_jsn; upto_jsn; failures = []; signatures = 0; anchors = 0;
      blocks = 0 }
  in
  let timed name f =
    let sp = Ledger_obs.Trace.enter name in
    let t0 = Unix.gettimeofday () in
    f ctx;
    let dt = Unix.gettimeofday () -. t0 in
    Ledger_obs.Trace.exit sp;
    dt
  in
  let who_seconds = timed "audit.who" (fun ctx -> who_pass ctx receipts) in
  let when_seconds = timed "audit.when" when_pass in
  let what_seconds =
    timed "audit.what" (fun ctx ->
        if ctx.from_jsn = 0 then what_replay ctx else what_by_proofs ctx;
        check_blocks ctx)
  in
  Ledger_obs.Metrics.incr "audit_runs_total";
  (* Per-jsn coverage entries: one Verified per audited journal without a
     failure, one Repudiated per journal with evidence.  Ledger-level
     failures (no jsn) attach to the commitment instead. *)
  if Ledger_obs.Obs.enabled () then begin
    let failed = Hashtbl.create 16 in
    let global_fail = ref None in
    List.iter
      (fun f ->
        match f.jsn with
        | Some j -> Hashtbl.replace failed j f.message
        | None -> if !global_fail = None then global_fail := Some f.message)
      ctx.failures;
    for jsn = from_jsn to upto_jsn - 1 do
      Ledger_obs.Audit_log.record ~verifier:"auditor" (Journal jsn)
        (match Hashtbl.find_opt failed jsn with
        | Some msg -> Ledger_obs.Audit_log.Repudiated msg
        | None -> Ledger_obs.Audit_log.Verified)
    done;
    Ledger_obs.Audit_log.record ~verifier:"auditor"
      (Commitment (Ledger.size ledger))
      (match !global_fail with
      | Some msg -> Ledger_obs.Audit_log.Repudiated msg
      | None -> Ledger_obs.Audit_log.Verified)
  end;
  {
    ok = ctx.failures = [];
    journals_checked = max 0 (upto_jsn - from_jsn);
    blocks_checked = ctx.blocks;
    time_anchors_checked = ctx.anchors;
    signatures_checked = ctx.signatures;
    what_seconds;
    when_seconds;
    who_seconds;
    failures = List.rev ctx.failures;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "audit %s: %d journals, %d blocks, %d anchors, %d signatures; what=%.3fms when=%.3fms who=%.3fms"
    (if r.ok then "PASSED" else "FAILED")
    r.journals_checked r.blocks_checked r.time_anchors_checked
    r.signatures_checked (r.what_seconds *. 1000.) (r.when_seconds *. 1000.)
    (r.who_seconds *. 1000.);
  if r.failures <> [] then begin
    Format.fprintf fmt "@\nfailures:";
    List.iter
      (fun f ->
        Format.fprintf fmt "@\n  [%s]%s %s" (factor_to_string f.factor)
          (match f.jsn with
          | Some j -> Printf.sprintf " jsn=%d" j
          | None -> "")
          f.message)
      r.failures
  end
