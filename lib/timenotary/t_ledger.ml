open Ledger_crypto
open Ledger_storage
open Ledger_merkle

type entry_kind =
  | Ledger_digest of { ledger_id : Hash.t; client_ts : int64 }
  | Tsa_anchor of Tsa.token

type entry = { index : int; kind : entry_kind; digest : Hash.t; notary_ts : int64 }

type error = Stale_submission of { client_ts : int64; notary_ts : int64 }

type t = {
  clock : Clock.t;
  tsa : Tsa.pool;
  tau_delta_us : int64;
  anchor_interval_us : int64;
  acc : Accumulator.t;
  mutable entries : entry list; (* newest first *)
  mutable entry_count : int;
  mutable last_anchor_ts : int64;
  verified_anchors : (int, bool) Hashtbl.t; (* entry index -> token valid *)
}

let create ?(tau_delta_ms = 500.) ?(anchor_interval_ms = 1000.) ~clock ~tsa () =
  {
    clock;
    tsa;
    tau_delta_us = Clock.us_of_ms tau_delta_ms;
    anchor_interval_us = Clock.us_of_ms anchor_interval_ms;
    acc = Accumulator.create ();
    entries = [];
    entry_count = 0;
    last_anchor_ts = Clock.now clock;
    verified_anchors = Hashtbl.create 64;
  }

(* A length-prefixed tag, then fixed-width Wire fields and the entry's
   index: no field boundary can move, so one inclusion proof cannot also
   prove an entry with other times, such as a backdated notary time. *)
let entry_leaf_digest e =
  Wire.encode_digest (fun w ->
      (match e.kind with
      | Ledger_digest { ledger_id; client_ts } ->
          Wire.w_string w "tl-digest";
          Wire.w_hash w ledger_id;
          Wire.w_int64 w client_ts
      | Tsa_anchor token ->
          Wire.w_string w "tl-anchor";
          Wire.w_hash w token.Tsa.tsa_id;
          Wire.w_int64 w token.Tsa.timestamp;
          Wire.w_sig w token.Tsa.signature);
      Wire.w_int w e.index;
      Wire.w_hash w e.digest;
      Wire.w_int64 w e.notary_ts)

let push t kind digest =
  let e =
    { index = t.entry_count; kind; digest; notary_ts = Clock.now t.clock }
  in
  ignore (Accumulator.append t.acc (entry_leaf_digest e));
  t.entries <- e :: t.entries;
  t.entry_count <- t.entry_count + 1;
  e

let force_anchor t =
  (* Two-way pegging (Protocol 3): endorse the current accumulator digest
     and anchor the signed token back as a TSA entry. *)
  let digest =
    if Accumulator.size t.acc = 0 then Hash.zero else Accumulator.root t.acc
  in
  let token = Tsa.pool_endorse t.tsa digest in
  t.last_anchor_ts <- Clock.now t.clock;
  push t (Tsa_anchor token) digest

let tick t =
  if
    Int64.compare
      (Int64.sub (Clock.now t.clock) t.last_anchor_ts)
      t.anchor_interval_us
    >= 0
  then ignore (force_anchor t)

let submit t ~ledger_id ~digest ~client_ts =
  tick t;
  let notary_ts = Clock.now t.clock in
  (* Protocol 4: reject submissions older than τ_Δ. *)
  if Int64.compare notary_ts (Int64.add client_ts t.tau_delta_us) >= 0 then
    Error (Stale_submission { client_ts; notary_ts })
  else Ok (push t (Ledger_digest { ledger_id; client_ts }) digest)

let entry_count t = t.entry_count

let entry t i =
  if i < 0 || i >= t.entry_count then invalid_arg "T_ledger.entry: out of range";
  List.nth t.entries (t.entry_count - 1 - i)

let root t = Accumulator.root t.acc
let prove_entry t i = Accumulator.prove t.acc i

let verify_entry ~root ~entry path =
  Accumulator.verify ~root ~leaf:(entry_leaf_digest entry) path

let verified_anchor t e =
  match e.kind with
  | Tsa_anchor token ->
      let ok =
        match Hashtbl.find_opt t.verified_anchors e.index with
        | Some v -> v
        | None ->
            let v = Tsa.pool_verify t.tsa token in
            Hashtbl.replace t.verified_anchors e.index v;
            v
      in
      if ok then Some token else None
  | Ledger_digest _ -> None

let verify_entry_time t i =
  if i < 0 || i >= t.entry_count then None
  else begin
    let ordered = List.rev t.entries in
    let lower = ref None and upper = ref None in
    List.iter
      (fun e ->
        match verified_anchor t e with
        | Some token ->
            if e.index <= i then lower := Some token.Tsa.timestamp
            else if !upper = None && e.index > i then
              upper := Some token.Tsa.timestamp
        | None -> ())
      ordered;
    Some (!lower, !upper)
  end

let anchors_between t lo hi =
  List.rev t.entries
  |> List.filter_map (fun e ->
         if e.index >= lo && e.index <= hi then verified_anchor t e else None)

let tau_delta_us t = t.tau_delta_us
