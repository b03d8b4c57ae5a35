open Ledger_crypto
open Ledger_storage
open Ledger_merkle

type config = {
  cloud_rtt_ms : float;
  proof_node_fetch_ms : float;
  sig_verify_ms : float;
}

let default_config =
  { cloud_rtt_ms = 33.; proof_node_fetch_ms = 70.; sig_verify_ms = 0.07 }

type revision = {
  leaf_index : int;
  data_digest : Hash.t;
  prehash : Hash.t; (* previous revision digest (lineage schema) *)
  signed : bool;
}

type t = {
  cfg : config;
  clock : Clock.t;
  acc : Accumulator.t; (* the single global journal accumulator *)
  docs : (string, bytes) Hashtbl.t;
  doc_leaf : (string, int) Hashtbl.t;
  history : (string, revision list ref) Hashtbl.t; (* newest first *)
}

let create ?(config = default_config) ~clock () =
  {
    cfg = config;
    clock;
    acc = Accumulator.create ();
    docs = Hashtbl.create 256;
    doc_leaf = Hashtbl.create 256;
    history = Hashtbl.create 256;
  }

let charge_ms t ms = Clock.advance t.clock (Clock.us_of_ms ms)

let leaf_digest ~id data = Hash.digest_string (id ^ ":" ^ Bytes.to_string data)

let insert t ~id data =
  (* write + commit: two service round trips *)
  charge_ms t (2. *. t.cfg.cloud_rtt_ms);
  let idx = Accumulator.append t.acc (leaf_digest ~id data) in
  Hashtbl.replace t.docs id (Bytes.copy data);
  Hashtbl.replace t.doc_leaf id idx

let retrieve t ~id =
  charge_ms t t.cfg.cloud_rtt_ms;
  Option.map Bytes.copy (Hashtbl.find_opt t.docs id)

(* Full tim proof walk, fetching every node through the service. *)
let verify_revision t leaf_index expected_digest =
  let proof = Accumulator.prove t.acc leaf_index in
  charge_ms t (float_of_int (Proof.length proof) *. t.cfg.proof_node_fetch_ms);
  Accumulator.verify ~root:(Accumulator.root t.acc) ~leaf:expected_digest proof

let verify t ~id =
  (* GetRevision: retrieve the document, fetch the digest tip, walk the
     proof. *)
  charge_ms t (2. *. t.cfg.cloud_rtt_ms);
  match (Hashtbl.find_opt t.docs id, Hashtbl.find_opt t.doc_leaf id) with
  | Some data, Some leaf_index ->
      verify_revision t leaf_index (leaf_digest ~id data)
  | _ -> false

let put_version t ~key data =
  charge_ms t t.cfg.cloud_rtt_ms;
  let cell =
    match Hashtbl.find_opt t.history key with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace t.history key r;
        r
  in
  let prehash =
    match !cell with [] -> Hash.zero | r :: _ -> r.data_digest
  in
  let version = List.length !cell in
  let id = Printf.sprintf "%s#%d" key version in
  let data_digest = leaf_digest ~id data in
  let leaf_index = Accumulator.append t.acc data_digest in
  Hashtbl.replace t.docs id (Bytes.copy data);
  Hashtbl.replace t.doc_leaf id leaf_index;
  cell := { leaf_index; data_digest; prehash; signed = true } :: !cell

let version_count t ~key =
  match Hashtbl.find_opt t.history key with
  | Some r -> List.length !r
  | None -> 0

let verify_lineage t ~key =
  match Hashtbl.find_opt t.history key with
  | None -> false
  | Some cell ->
      let revisions = List.rev !cell in
      charge_ms t t.cfg.cloud_rtt_ms;
      let prev = ref Hash.zero in
      List.for_all
        (fun r ->
          (* each revision: existence proof, prehash link, signature *)
          charge_ms t t.cfg.cloud_rtt_ms;
          charge_ms t t.cfg.sig_verify_ms;
          let link_ok = Hash.equal r.prehash !prev in
          prev := r.data_digest;
          link_ok && r.signed && verify_revision t r.leaf_index r.data_digest)
        revisions

let preload t n =
  for i = 0 to n - 1 do
    ignore
      (Accumulator.append t.acc (Hash.digest_string ("preload:" ^ string_of_int i)))
  done
