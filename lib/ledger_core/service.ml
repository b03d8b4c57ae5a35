open Ledger_crypto
open Ledger_cmtree
open Ledger_merkle
module Range_query = Ledger_query.Range_query

type request =
  | Append of {
      member_id : Hash.t;
      payload : bytes;
      clues : string list;
      client_ts : int64;
      nonce : int;
      signature : Ecdsa.signature;
    }
  | Append_batch of {
      member_id : Hash.t;
      entries : (bytes * string list * int64 * int * Ecdsa.signature) list;
    }
  | Get_payload of { jsn : int }
  | Get_proof of { jsn : int }
  | Get_receipt of { jsn : int }
  | Get_clue_proof of { clue : string; first : int option; last : int option }
  | Get_commitment
  | Get_extension of { old_size : int }
  | Get_journal of { jsn : int }
  | Get_block of { height : int }
  | Get_members
  | Get_checkpoint
  | Get_proof_bundle of { jsn : int }
  | Get_clue_bundle of { clue : string; first : int option; last : int option }
  | Query_page of {
      spec : Range_query.spec;
      window : Range_query.window option;
      after : string option;
      page_size : int;
      pin : int option;
          (* pin the scan to a snapshot epoch: a later page refusing with
             [Stale_r] tells the client a write landed mid-scan *)
    }

type response =
  | Receipt_r of Receipt.t
  | Receipts_r of Receipt.t list
  | Payload_r of bytes option
  | Proof_r of Fam.proof
  | Clue_proof_r of Cm_tree.clue_proof option
  | Commitment_r of { commitment : Hash.t; size : int }
  | Extension_r of Fam.extension_proof
  | Journal_r of { tx : Hash.t; encoded : bytes }
  | Block_r of Block.t
  | Members_r of (string * string * bytes) list
      (** (name, role tag, 64-byte public key) *)
  | Checkpoint_r of Snapshot.checkpoint
  | Proof_bundle_r of { proof : Fam.proof; commitment : Hash.t; size : int }
  | Clue_bundle_r of { proof : Cm_tree.clue_proof option; clue_root : Hash.t }
  | Query_page_r of {
      page : Range_query.page;
      query_root : Hash.t;
      commitment : Hash.t;
      size : int;
      epoch : int;
          (* snapshot epoch the page was served from; feed it back as
             [pin] on follow-up pages for a single-snapshot scan *)
    }
  | Stale_r of { pinned : int; current : int }
      (* typed retryable refusal: the pinned epoch is no longer current —
         restart the scan (or re-pin to [current]) *)
  | Error_r of string

(* --- codecs ------------------------------------------------------------- *)

let w_request w req =
  match req with
  | Append { member_id; payload; clues; client_ts; nonce; signature } ->
      Wire.w_u8 w 0;
      Wire.w_hash w member_id;
      Wire.w_bytes w payload;
      Wire.w_list w (Wire.w_string w) clues;
      Wire.w_int64 w client_ts;
      Wire.w_int w nonce;
      Wire.w_sig w signature
  | Get_payload { jsn } ->
      Wire.w_u8 w 1;
      Wire.w_int w jsn
  | Get_proof { jsn } ->
      Wire.w_u8 w 2;
      Wire.w_int w jsn
  | Get_receipt { jsn } ->
      Wire.w_u8 w 3;
      Wire.w_int w jsn
  | Get_clue_proof { clue; first; last } ->
      Wire.w_u8 w 4;
      Wire.w_string w clue;
      Wire.w_option w (Wire.w_int w) first;
      Wire.w_option w (Wire.w_int w) last
  | Get_commitment -> Wire.w_u8 w 5
  | Get_extension { old_size } ->
      Wire.w_u8 w 6;
      Wire.w_int w old_size
  | Get_journal { jsn } ->
      Wire.w_u8 w 7;
      Wire.w_int w jsn
  | Get_block { height } ->
      Wire.w_u8 w 8;
      Wire.w_int w height
  | Get_members -> Wire.w_u8 w 9
  | Get_checkpoint -> Wire.w_u8 w 10
  | Get_proof_bundle { jsn } ->
      Wire.w_u8 w 12;
      Wire.w_int w jsn
  | Get_clue_bundle { clue; first; last } ->
      Wire.w_u8 w 13;
      Wire.w_string w clue;
      Wire.w_option w (Wire.w_int w) first;
      Wire.w_option w (Wire.w_int w) last
  | Query_page { spec; window; after; page_size; pin } ->
      Wire.w_u8 w 14;
      Range_query.w_spec w spec;
      Wire.w_option w (Range_query.w_window w) window;
      Wire.w_option w (Wire.w_string w) after;
      Wire.w_int w page_size;
      Wire.w_option w (Wire.w_int w) pin
  | Append_batch { member_id; entries } ->
      Wire.w_u8 w 11;
      Wire.w_hash w member_id;
      Wire.w_list w
        (fun (payload, clues, client_ts, nonce, signature) ->
          Wire.w_bytes w payload;
          Wire.w_list w (Wire.w_string w) clues;
          Wire.w_int64 w client_ts;
          Wire.w_int w nonce;
          Wire.w_sig w signature)
        entries

let encode_request req = Wire.encode (fun w -> w_request w req)

let decode_request data =
  Wire.decode data (fun r ->
      match Wire.r_u8 r with
      | 0 ->
          let member_id = Wire.r_hash r in
          let payload = Wire.r_bytes r in
          let clues = Wire.r_list ~max:64 r (fun () -> Wire.r_string r) in
          let client_ts = Wire.r_int64 r in
          let nonce = Wire.r_int r in
          let signature = Wire.r_sig r in
          Append { member_id; payload; clues; client_ts; nonce; signature }
      | 1 -> Get_payload { jsn = Wire.r_int r }
      | 2 -> Get_proof { jsn = Wire.r_int r }
      | 3 -> Get_receipt { jsn = Wire.r_int r }
      | 4 ->
          let clue = Wire.r_string r in
          let first = Wire.r_option r (fun () -> Wire.r_int r) in
          let last = Wire.r_option r (fun () -> Wire.r_int r) in
          Get_clue_proof { clue; first; last }
      | 5 -> Get_commitment
      | 6 -> Get_extension { old_size = Wire.r_int r }
      | 7 -> Get_journal { jsn = Wire.r_int r }
      | 8 -> Get_block { height = Wire.r_int r }
      | 9 -> Get_members
      | 10 -> Get_checkpoint
      | 12 -> Get_proof_bundle { jsn = Wire.r_int r }
      | 13 ->
          let clue = Wire.r_string r in
          let first = Wire.r_option r (fun () -> Wire.r_int r) in
          let last = Wire.r_option r (fun () -> Wire.r_int r) in
          Get_clue_bundle { clue; first; last }
      | 14 ->
          let spec = Range_query.r_spec r in
          let window = Wire.r_option r (fun () -> Range_query.r_window r) in
          let after = Wire.r_option r (fun () -> Wire.r_string r) in
          let page_size = Wire.r_int r in
          let pin = Wire.r_option r (fun () -> Wire.r_int r) in
          Query_page { spec; window; after; page_size; pin }
      | 11 ->
          let member_id = Wire.r_hash r in
          let entries =
            Wire.r_list ~max:65536 r (fun () ->
                let payload = Wire.r_bytes r in
                let clues = Wire.r_list ~max:64 r (fun () -> Wire.r_string r) in
                let client_ts = Wire.r_int64 r in
                let nonce = Wire.r_int r in
                let signature = Wire.r_sig r in
                (payload, clues, client_ts, nonce, signature))
          in
          Append_batch { member_id; entries }
      | _ -> raise Wire.Corrupt)

let w_receipt w (r : Receipt.t) =
  Wire.w_int w r.Receipt.jsn;
  Wire.w_hash w r.Receipt.request_hash;
  Wire.w_hash w r.Receipt.tx_hash;
  Wire.w_hash w r.Receipt.block_hash;
  Wire.w_int64 w r.Receipt.timestamp;
  Wire.w_sig w r.Receipt.lsp_sig

let r_receipt r =
  let jsn = Wire.r_int r in
  let request_hash = Wire.r_hash r in
  let tx_hash = Wire.r_hash r in
  let block_hash = Wire.r_hash r in
  let timestamp = Wire.r_int64 r in
  let lsp_sig = Wire.r_sig r in
  { Receipt.jsn; request_hash; tx_hash; block_hash; timestamp; lsp_sig }

let w_response w resp =
  match resp with
  | Receipt_r receipt ->
      Wire.w_u8 w 0;
      w_receipt w receipt
  | Payload_r payload ->
      Wire.w_u8 w 1;
      Wire.w_option w (Wire.w_bytes w) payload
  | Proof_r proof ->
      Wire.w_u8 w 2;
      Proof_codec.w_fam_proof w proof
  | Clue_proof_r proof ->
      Wire.w_u8 w 3;
      Wire.w_option w (Cm_tree.w_clue_proof w) proof
  | Commitment_r { commitment; size } ->
      Wire.w_u8 w 4;
      Wire.w_hash w commitment;
      Wire.w_int w size
  | Extension_r proof ->
      Wire.w_u8 w 6;
      Proof_codec.w_fam_extension w proof
  | Journal_r { tx; encoded } ->
      Wire.w_u8 w 7;
      Wire.w_hash w tx;
      Wire.w_bytes w encoded
  | Block_r b ->
      Wire.w_u8 w 8;
      Block.w_block w b
  | Members_r members ->
      Wire.w_u8 w 9;
      Wire.w_list w (Roles.w_member w) members
  | Checkpoint_r c ->
      Wire.w_u8 w 10;
      Snapshot.w_checkpoint w c
  | Error_r msg ->
      Wire.w_u8 w 5;
      Wire.w_string w msg
  | Receipts_r receipts ->
      Wire.w_u8 w 11;
      Wire.w_list w (w_receipt w) receipts
  | Proof_bundle_r { proof; commitment; size } ->
      Wire.w_u8 w 12;
      Proof_codec.w_fam_proof w proof;
      Wire.w_hash w commitment;
      Wire.w_int w size
  | Clue_bundle_r { proof; clue_root } ->
      Wire.w_u8 w 13;
      Wire.w_option w (Cm_tree.w_clue_proof w) proof;
      Wire.w_hash w clue_root
  | Query_page_r { page; query_root; commitment; size; epoch } ->
      Wire.w_u8 w 14;
      Range_query.w_page w page;
      Wire.w_hash w query_root;
      Wire.w_hash w commitment;
      Wire.w_int w size;
      Wire.w_int w epoch
  | Stale_r { pinned; current } ->
      Wire.w_u8 w 15;
      Wire.w_int w pinned;
      Wire.w_int w current

let encode_response resp = Wire.encode (fun w -> w_response w resp)

let decode_response data =
  Wire.decode data (fun r ->
      match Wire.r_u8 r with
      | 0 -> Receipt_r (r_receipt r)
      | 1 -> Payload_r (Wire.r_option r (fun () -> Wire.r_bytes r))
      | 2 -> Proof_r (Proof_codec.r_fam_proof r)
      | 3 -> Clue_proof_r (Wire.r_option r (fun () -> Cm_tree.r_clue_proof r))
      | 4 ->
          let commitment = Wire.r_hash r in
          let size = Wire.r_int r in
          Commitment_r { commitment; size }
      | 5 -> Error_r (Wire.r_string r)
      | 6 -> Extension_r (Proof_codec.r_fam_extension r)
      | 7 ->
          let tx = Wire.r_hash r in
          let encoded = Wire.r_bytes r in
          Journal_r { tx; encoded }
      | 8 -> Block_r (Block.r_block r)
      | 9 -> Members_r (Wire.r_list ~max:10000 r (fun () -> Roles.r_member r))
      | 10 -> Checkpoint_r (Snapshot.r_checkpoint r)
      | 11 -> Receipts_r (Wire.r_list ~max:65536 r (fun () -> r_receipt r))
      | 12 ->
          let proof = Proof_codec.r_fam_proof r in
          let commitment = Wire.r_hash r in
          let size = Wire.r_int r in
          Proof_bundle_r { proof; commitment; size }
      | 13 ->
          let proof = Wire.r_option r (fun () -> Cm_tree.r_clue_proof r) in
          let clue_root = Wire.r_hash r in
          Clue_bundle_r { proof; clue_root }
      | 14 ->
          let page = Range_query.r_page r in
          let query_root = Wire.r_hash r in
          let commitment = Wire.r_hash r in
          let size = Wire.r_int r in
          let epoch = Wire.r_int r in
          Query_page_r { page; query_root; commitment; size; epoch }
      | 15 ->
          let pinned = Wire.r_int r in
          let current = Wire.r_int r in
          Stale_r { pinned; current }
      | _ -> raise Wire.Corrupt)

(* --- server ---------------------------------------------------------------- *)

let request_kind = function
  | Append _ -> "append"
  | Append_batch _ -> "append_batch"
  | Get_payload _ -> "get_payload"
  | Get_proof _ -> "get_proof"
  | Get_receipt _ -> "get_receipt"
  | Get_clue_proof _ -> "get_clue_proof"
  | Get_commitment -> "get_commitment"
  | Get_extension _ -> "get_extension"
  | Get_journal _ -> "get_journal"
  | Get_block _ -> "get_block"
  | Get_members -> "get_members"
  | Get_checkpoint -> "get_checkpoint"
  | Get_proof_bundle _ -> "get_proof_bundle"
  | Get_clue_bundle _ -> "get_clue_bundle"
  | Query_page _ -> "query_page"

module RV = Ledger.Read_view

(* The one read implementation: every read is answered from an immutable
   snapshot.  Every mutation boundary republishes the view, so under the
   writer's serialization the current view is exactly the committed
   state; off it, the answer is that of the latest publication. *)
let read v = function
  | Append _ | Append_batch _ ->
      (* mutations are routed through {!dispatch} by {!mutation_frame};
         reaching here is a dispatcher bug, not a client error *)
      assert false
  | Get_payload { jsn } ->
      if jsn < 0 || jsn >= RV.size v then Error_r "jsn out of range"
      else Payload_r (RV.payload v jsn)
  | Get_proof { jsn } ->
      if jsn < 0 || jsn >= RV.size v then Error_r "jsn out of range"
      else Proof_r (RV.get_proof v jsn)
  | Get_receipt { jsn } ->
      if jsn < 0 || jsn >= RV.size v then Error_r "jsn out of range"
      else Receipt_r (RV.receipt v jsn)
  | Get_clue_proof { clue; first; last } ->
      Clue_proof_r (RV.prove_clue v ~clue ?first ?last ())
  | Get_commitment ->
      if RV.size v = 0 then Error_r "empty ledger"
      else Commitment_r { commitment = RV.commitment v; size = RV.size v }
  | Get_extension { old_size } ->
      if old_size <= 0 || old_size > RV.size v then
        Error_r "old_size out of range"
      else Extension_r (RV.prove_extension v ~old_size)
  | Get_journal { jsn } ->
      if jsn < 0 || jsn >= RV.size v then Error_r "jsn out of range"
      else begin
        let j = RV.journal v jsn in
        (* the shipped payload reflects erasures *)
        let payload =
          match RV.payload v jsn with Some p -> p | None -> Bytes.empty
        in
        let j = { j with Journal.payload } in
        Journal_r
          { tx = RV.tx_hash_of v jsn; encoded = Journal_codec.encode j }
      end
  | Get_block { height } ->
      if height < 0 || height >= RV.block_count v then
        Error_r "block out of range"
      else Block_r (RV.block v height)
  | Get_members ->
      (* the view stores the registry pre-sorted by name in wire form *)
      Members_r (RV.members_wire v)
  | Get_proof_bundle { jsn } ->
      if jsn < 0 || jsn >= RV.size v then Error_r "jsn out of range"
      else
        (* one snapshot: the proof and the root it hashes to cannot
           straddle a concurrent append *)
        Proof_bundle_r
          {
            proof = RV.get_proof v jsn;
            commitment = RV.commitment v;
            size = RV.size v;
          }
  | Get_clue_bundle { clue; first; last } ->
      Clue_bundle_r
        {
          proof = RV.prove_clue v ~clue ?first ?last ();
          clue_root = RV.clue_root v;
        }
  | Query_page { spec; window; after; page_size; pin } ->
      if page_size <= 0 || page_size > 65536 then Error_r "bad page_size"
      else begin
        (* page + root from one snapshot, same contract as
           Get_proof_bundle *)
        let epoch = RV.epoch v in
        match pin with
        | Some e when e <> epoch -> Stale_r { pinned = e; current = epoch }
        | Some _ | None ->
            Query_page_r
              {
                page =
                  Range_query.page (RV.query_index v) ~spec ?window ?after
                    ~page_size ();
                query_root = RV.query_root v;
                commitment =
                  (if RV.size v = 0 then Hash.zero else RV.commitment v);
                size = RV.size v;
                epoch;
              }
      end
  | Get_checkpoint ->
      Checkpoint_r
        {
          Snapshot.name = RV.name v;
          size = RV.size v;
          block_count = RV.block_count v;
          commitment =
            (if RV.size v = 0 then Hash.zero else RV.commitment v);
          clue_root = RV.clue_root v;
          nonce = RV.size v;
          pseudo_genesis = RV.pseudo_genesis_jsn v;
        }

let dispatch ledger = function
  | Append { member_id; payload; clues; client_ts; nonce; signature } -> (
      match
        Ledger.append_signed ledger ~member_id ~payload ~clues ~client_ts
          ~nonce ~signature
      with
      | Ok receipt -> Receipt_r receipt
      | Error msg -> Error_r msg)
  | Append_batch { member_id; entries } -> (
      match Ledger.append_signed_batch ledger ~member_id entries with
      | Ok receipts -> Receipts_r receipts
      | Error msg -> Error_r msg)
  | req -> read (Ledger.read_view ledger) req

(* Anything else an arm raises is a bug, not a refusal: it is counted and
   still answered, so it never escapes into a server's worker loop. *)
let error_of_exn = function
  | Invalid_argument msg | Failure msg | Sys_error msg -> msg
  | Not_found -> "not found"
  | Ledger_storage.Stream_store.Read_error e ->
      Ledger_storage.Stream_store.read_error_to_string e
  | e ->
      Ledger_obs.Metrics.incr "service_internal_errors_total";
      "internal error: " ^ Printexc.to_string e

(* Decode → answer → encode, with the trace span and the request/error
   counters: the one wrapper behind both entry points. *)
let respond answer decoded =
  let sp = Ledger_obs.Trace.enter "service.handle" in
  Ledger_obs.Metrics.incr "service_requests_total";
  let resp =
    match decoded with
    | None -> Error_r "malformed request"
    | Some req -> (
        Ledger_obs.Trace.attr sp "kind" (request_kind req);
        try answer req with e -> Error_r (error_of_exn e))
  in
  (match resp with
  | Error_r _ -> Ledger_obs.Metrics.incr "service_errors_total"
  | _ -> ());
  Ledger_obs.Trace.exit sp;
  encode_response resp

let handle ledger data = respond (dispatch ledger) (decode_request data)

(* An [Append] (tag 0) or [Append_batch] (tag 11) frame, told by its tag
   byte alone: the read path declines it undecoded, and {!handle}
   decodes it under the writer's lock, where a malformed one gets the
   same refusal it would get here. *)
let mutation_frame data pos =
  Bytes.length data > pos
  && match Bytes.get_uint8 data pos with 0 | 11 -> true | _ -> false

let handle_read ledger data =
  if mutation_frame data 0 then None
  else Some (respond (read (Ledger.read_view ledger)) (decode_request data))

(* --- client ----------------------------------------------------------------- *)

module Client = struct
  type t = {
    ledger_uri : string;
    member : Roles.member;
    priv : Ecdsa.private_key;
    crypto : Crypto_profile.t;
    mutable nonce : int;
  }

  let create ?(crypto = Crypto_profile.Real) ~ledger_uri ~member ~priv () =
    { ledger_uri; member; priv; crypto; nonce = 0 }

  let sign_entry t ?(clues = []) ~client_ts payload =
    t.nonce <- t.nonce + 1;
    let request_hash =
      Journal.request_digest ~ledger_uri:t.ledger_uri ~kind_tag:"normal"
        ~payload ~clues ~client_ts ~nonce:t.nonce
    in
    let signature =
      Crypto_profile.sign_pure t.crypto ~priv:t.priv
        ~pub:t.member.Roles.pub request_hash
    in
    (payload, clues, client_ts, t.nonce, signature)

  let make_append t ?clues ~client_ts payload =
    let payload, clues, client_ts, nonce, signature =
      sign_entry t ?clues ~client_ts payload
    in
    encode_request
      (Append
         { member_id = t.member.Roles.id; payload; clues; client_ts; nonce;
           signature })

  let make_append_batch t entries =
    let entries =
      List.map
        (fun (payload, clues, client_ts) ->
          sign_entry t ~clues ~client_ts payload)
        entries
    in
    encode_request (Append_batch { member_id = t.member.Roles.id; entries })

  let make_get_proof ~jsn = encode_request (Get_proof { jsn })
  let make_get_payload ~jsn = encode_request (Get_payload { jsn })
  let make_get_receipt ~jsn = encode_request (Get_receipt { jsn })

  let make_get_clue_proof ~clue ?first ?last () =
    encode_request (Get_clue_proof { clue; first; last })

  let make_get_commitment () = encode_request Get_commitment
  let make_get_extension ~old_size = encode_request (Get_extension { old_size })
  let make_get_journal ~jsn = encode_request (Get_journal { jsn })
  let make_get_block ~height = encode_request (Get_block { height })
  let make_get_members () = encode_request Get_members
  let make_get_checkpoint () = encode_request Get_checkpoint
  let make_get_proof_bundle ~jsn = encode_request (Get_proof_bundle { jsn })

  let make_get_clue_bundle ~clue ?first ?last () =
    encode_request (Get_clue_bundle { clue; first; last })

  let make_query_page ~spec ?window ?after ?pin ~page_size () =
    encode_request (Query_page { spec; window; after; page_size; pin })

  let parse = decode_response
end
