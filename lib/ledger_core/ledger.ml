open Ledger_crypto
open Ledger_storage
open Ledger_merkle
open Ledger_cmtree
module Cm_tree_index = Clue_skiplist
module Query_index = Ledger_query.Query_index
open Ledger_timenotary

let log = Logs.Src.create "ledgerdb.ledger" ~doc:"LedgerDB kernel events"

module Log = (val Logs.src_log log : Logs.LOG)
module Obs = Ledger_obs.Obs
module Metrics = Ledger_obs.Metrics
module Trace = Ledger_obs.Trace
module Audit_log = Ledger_obs.Audit_log
module Domain_pool = Ledger_par.Domain_pool

type config = {
  name : string;
  block_size : int;
  fam_delta : int;
  latency : Latency_model.t;
  crypto : Crypto_profile.t;
  member_ca : Ecdsa.public_key option;
}

let default_config =
  {
    name = "ledger";
    block_size = 64;
    fam_delta = 15;
    latency = Latency_model.default;
    crypto = Crypto_profile.Real;
    member_ca = None;
  }

(* In-memory journal slot: the journal record survives purge/occult as a
   tombstone so tx hashes and kinds stay available to verification.
   Slots are immutable records — every mutation (purge/occult erasure,
   compaction remap, the Unsafe forgeries) replaces the whole record with
   a single pointer store, so a reader on another domain always sees a
   coherent slot, never a half-updated one. *)
type slot = {
  journal : Journal.t;
  tx : Hash.t;
  store_index : int; (* record index in the journal stream *)
  request_hash : Hash.t;
}

(* Epoch-published read snapshot: a frozen, immutable view of committed
   state, republished (a single [Atomic.set]) at every mutation boundary.
   Worker domains serve proof/query reads against the current view with
   no lock at all; the OCaml 5 memory model makes every (plain) write
   performed before the atomic publication visible to any domain that
   reads the view through [Atomic.get].  Purge/occult erasures remain
   visible through old views (shared stream records and slot array) —
   snapshots never resurrect erased payloads. *)
type view = {
  v_epoch : int;  (* publication counter; bumps at every publish *)
  v_name : string;
  v_size : int;
  v_block_count : int;
  v_blocks : Block.t list; (* newest first *)
  v_slots : slot array; (* shared with the writer; guarded by v_size *)
  v_fam : Fam.t; (* frozen *)
  v_cm : Cm_tree.t; (* frozen *)
  v_query : Query_index.t; (* frozen *)
  v_members : (string * string * bytes) list; (* sorted wire form *)
  v_pseudo_genesis : int option;
  v_now : int64; (* clock pinned at publication *)
  v_store : Stream_store.pinned;
  v_lsp_priv : Ecdsa.private_key;
  v_lsp_pub : Ecdsa.public_key;
  v_crypto : Crypto_profile.t;
}

(* One clue's retrieval state: its cSL of jsns and, for each version
   [v < Cm_tree_index.length csl], the world-state leaf [leaves.(v)] of
   that state transition. *)
type clue_state = { csl : Cm_tree_index.t; mutable leaves : int array }

type t = {
  cfg : config;
  clock : Clock.t;
  store : Stream_store.t;
  journal_stream : Stream_store.stream;
  survival_stream : Stream_store.stream;
  mutable slots : slot array;
  mutable count : int;
  fam : Fam.t;
  cm : Cm_tree.t;
  world_state : Accumulator.t;
  mutable blocks : Block.t list; (* newest first *)
  mutable block_count : int;
  mutable pending_txs : Hash.t list; (* newest first, current block *)
  occult_bits : Bitmap_index.t;
  mutable occult_pending : int list; (* async-occulted, not yet erased *)
  registry : Roles.registry;
  lsp_priv : Ecdsa.private_key;
  lsp_pub : Ecdsa.public_key;
  lsp_id : Hash.t;
  t_ledger : T_ledger.t option;
  tsa : Tsa.pool option;
  clue_states : (string, clue_state) Hashtbl.t; (* cSL and world-state leaves *)
  query : Query_index.t; (* ordered clue trie for verifiable range scans *)
  mutable time_journals : int list; (* jsns, newest first *)
  mutable pseudo_genesis_jsn : int option;
  mutable survivor_jsns : int list;
  mutable nonce : int;
  view : view option Atomic.t;
      (* current read snapshot; [None] only transiently inside [create] *)
  mutable view_epoch : int; (* next publication epoch (writer-only) *)
}

(* placeholder slot for unoccupied array cells; always overwritten before
   first read (guarded by [count]) *)
let dummy_slot =
  {
    journal =
      {
        Journal.jsn = -1;
        kind = Journal.Normal;
        client_id = Hash.zero;
        payload = Bytes.empty;
        clues = [];
        client_ts = 0L;
        server_ts = 0L;
        nonce = 0;
        request_hash = Hash.zero;
        client_sig = None;
        cosigners = [];
      };
    tx = Hash.zero;
    store_index = -1;
    request_hash = Hash.zero;
  }

(* Build and atomically publish a fresh read snapshot.  Writer-only:
   always called with the mutation already complete, so the view captures
   a committed state.  O(dirty-trie-path) per call: the member wire list
   is the registry's own, already sorted and encoded. *)
let publish t =
  let v =
    {
      v_epoch = t.view_epoch;
      v_name = t.cfg.name;
      v_size = t.count;
      v_block_count = t.block_count;
      v_blocks = t.blocks;
      v_slots = t.slots;
      v_fam = Fam.freeze t.fam;
      v_cm = Cm_tree.freeze t.cm;
      v_query = Query_index.freeze t.query;
      v_members = Roles.members_wire t.registry;
      v_pseudo_genesis = t.pseudo_genesis_jsn;
      v_now = Clock.now t.clock;
      v_store = Stream_store.pin t.journal_stream;
      v_lsp_priv = t.lsp_priv;
      v_lsp_pub = t.lsp_pub;
      v_crypto = t.cfg.crypto;
    }
  in
  t.view_epoch <- t.view_epoch + 1;
  Atomic.set t.view (Some v);
  Metrics.incr "ledger_view_published_total"

let read_view t =
  match Atomic.get t.view with
  | Some v -> v
  | None -> assert false (* create/load publish before returning *)

let create ?(config = default_config) ?t_ledger ?tsa ~clock () =
  let store = Stream_store.create () in
  let lsp_priv, lsp_pub = Ecdsa.generate ~seed:("lsp:" ^ config.name) in
  let t = {
    cfg = config;
    clock;
    store;
    journal_stream = Stream_store.stream store "journals";
    survival_stream = Stream_store.stream store "survival";
    slots = Array.make 64 dummy_slot;
    count = 0;
    fam = Fam.create ~delta:config.fam_delta;
    cm = Cm_tree.create ();
    world_state = Accumulator.create ();
    blocks = [];
    block_count = 0;
    pending_txs = [];
    occult_bits = Bitmap_index.create ();
    occult_pending = [];
    registry = Roles.create_registry ();
    lsp_priv;
    lsp_pub;
    lsp_id = Ecdsa.public_key_id lsp_pub;
    t_ledger;
    tsa;
    clue_states = Hashtbl.create 64;
    query = Query_index.create ();
    time_journals = [];
    pseudo_genesis_jsn = None;
    survivor_jsns = [];
    nonce = 0;
    view = Atomic.make None;
    view_epoch = 0;
  }
  in
  publish t;
  t

let config t = t.cfg
let clock t = t.clock
let uri t = "ledger://" ^ t.cfg.name
let registry t = t.registry
let lsp_public_key t = t.lsp_pub
let register_member t ?certificate ~name ~role pub =
  (match t.cfg.member_ca with
  | Some ca_pub -> (
      match certificate with
      | Some cert when Roles.verify_certificate ~ca_pub pub cert -> ()
      | Some _ ->
          invalid_arg ("Ledger.register_member: invalid certificate for " ^ name)
      | None ->
          invalid_arg
            ("Ledger.register_member: this ledger requires CA-certified \
              members (" ^ name ^ ")"))
  | None -> ());
  let member = Roles.register t.registry ~name ~role pub in
  (match certificate with
  | Some cert -> Roles.record_certificate t.registry cert
  | None -> ());
  publish t;
  member

let new_member ?ca_priv t ~name ~role =
  let priv, pub = Ecdsa.generate ~seed:(t.cfg.name ^ ":" ^ name) in
  let certificate = Option.map (fun ca_priv -> Roles.certify ~ca_priv pub) ca_priv in
  (register_member t ?certificate ~name ~role pub, priv)

let sign_with_profile t ~priv ~pub digest =
  Crypto_profile.sign t.cfg.crypto t.clock ~priv ~pub digest

let verify_with_profile t ~pub digest signature =
  Crypto_profile.verify t.cfg.crypto t.clock ~pub digest signature

let size t = t.count
let store_healthy t = Stream_store.healthy t.store
let backing_store t = t.store

(* Slot, block, proof and receipt lookups below take the structure they
   read from, so the writer ([t]) and a published view share one body. *)
let slot_in slots ~size jsn =
  if jsn < 0 || jsn >= size then
    invalid_arg (Printf.sprintf "Ledger: jsn %d out of range [0,%d)" jsn size);
  slots.(jsn)

let slot t jsn = slot_in t.slots ~size:t.count jsn

let journal t jsn = (slot t jsn).journal
let tx_hash_of t jsn = (slot t jsn).tx

let payload t jsn =
  let s = slot t jsn in
  if s.store_index < 0 then None
  else
    Stream_store.read_opt
      ~latency:(t.cfg.latency, t.clock)
      t.journal_stream s.store_index

let iter_journals t f =
  for i = 0 to t.count - 1 do
    f t.slots.(i).journal
  done

(* --- block building ---------------------------------------------------- *)

let latest_block_hash t =
  match t.blocks with [] -> Hash.zero | b :: _ -> Block.hash b

let seal_block t =
  if t.pending_txs <> [] then begin
    let txs = List.rev t.pending_txs in
    let count = List.length txs in
    let block =
      {
        Block.height = t.block_count;
        start_jsn = t.count - count;
        count;
        prev_hash = latest_block_hash t;
        journal_commitment = Fam.commitment t.fam;
        clue_root = Cm_tree.root_hash t.cm;
        world_state_root =
          (if Accumulator.size t.world_state = 0 then Hash.zero
           else Accumulator.root t.world_state);
        tx_root = Merkle_tree.root (Merkle_tree.build txs);
        timestamp = Clock.now t.clock;
      }
    in
    t.blocks <- block :: t.blocks;
    t.block_count <- t.block_count + 1;
    t.pending_txs <- [];
    publish t;
    Metrics.incr "ledger_blocks_sealed_total";
    Log.debug (fun m ->
        m "sealed block %d (%d journals, clue root %s)" block.Block.height
          count
          (Hash.short_hex block.Block.clue_root))
  end

let block_count t = t.block_count

(* [blocks] newest first, [count] of them *)
let block_in blocks ~count h =
  if h < 0 || h >= count then invalid_arg "Ledger.block: out of range";
  List.nth blocks (count - 1 - h)

let block t h = block_in t.blocks ~count:t.block_count h

let blocks t = List.rev t.blocks

(* --- journal commitment ------------------------------------------------ *)

(* CM-Tree, cSL skip list, query index and world-state entries for one
   journal — shared by the sequential and batched commit paths and by
   snapshot replay. *)
let index_clues t (j : Journal.t) tx =
  List.iter
    (fun clue ->
      ignore (Cm_tree.insert t.cm ~clue tx);
      let cs =
        match Hashtbl.find_opt t.clue_states clue with
        | Some cs -> cs
        | None ->
            let cs = { csl = Cm_tree_index.create (); leaves = [||] } in
            Hashtbl.replace t.clue_states clue cs;
            cs
      in
      let version = Cm_tree_index.length cs.csl in
      Cm_tree_index.append cs.csl j.Journal.jsn;
      Query_index.add t.query ~clue ~jsn:j.Journal.jsn ~tx;
      (* world-state: one entry per clue-state transition *)
      let leaf_index =
        Accumulator.append t.world_state (Hash.combine (Hash.scatter clue) tx)
      in
      if version = Array.length cs.leaves then begin
        let bigger = Array.make (max 1 (2 * version)) 0 in
        Array.blit cs.leaves 0 bigger 0 version;
        cs.leaves <- bigger
      end;
      cs.leaves.(version) <- leaf_index)
    j.Journal.clues

(* Slot, indexes and the per-kind side effects of one stored and
   accumulated journal: the one place that installs a journal, for the
   commit paths and for snapshot replay alike.  No seal, no publish. *)
let install_slot t (j : Journal.t) ~tx ~store_index =
  if t.count >= Array.length t.slots then begin
    let bigger = Array.make (2 * Array.length t.slots) t.slots.(0) in
    Array.blit t.slots 0 bigger 0 t.count;
    t.slots <- bigger
  end;
  let s = { journal = j; tx; store_index; request_hash = j.Journal.request_hash } in
  t.slots.(t.count) <- s;
  t.count <- t.count + 1;
  index_clues t j tx;
  t.pending_txs <- tx :: t.pending_txs;
  (match j.Journal.kind with
  | Journal.Time _ -> t.time_journals <- j.Journal.jsn :: t.time_journals
  | Journal.Occult { target_jsn; _ } -> Bitmap_index.set t.occult_bits target_jsn
  | Journal.Pseudo_genesis _ -> t.pseudo_genesis_jsn <- Some j.Journal.jsn
  | Journal.Normal | Journal.Purge _ -> ());
  s

(* Replay installs journals too, so only [commit] counts appends. *)
let count_append (j : Journal.t) =
  Metrics.incr "ledger_appends_total";
  Metrics.observe_int "ledger_payload_bytes" (Bytes.length j.Journal.payload)

(* Persist, accumulate and install one chunk of journals with leaves
   [txs]: one storage append and one fam accumulation for the chunk.
   The one place journals reach storage and the accumulator — [commit]
   and snapshot replay both install through it.  No seal, no publish. *)
let install_chunk ?(pool = Domain_pool.sequential) t journals txs =
  let sp_persist = Trace.enter "persist" in
  let first_store =
    Stream_store.append_many t.journal_stream
      (List.map (fun (j : Journal.t) -> j.Journal.payload) journals)
  in
  Trace.exit sp_persist;
  let sp_acc = Trace.enter "accumulate" in
  ignore (Fam.append_many ~pool t.fam txs);
  let slots =
    List.mapi
      (fun k (j, tx) -> install_slot t j ~tx ~store_index:(first_store + k))
      (List.combine journals txs)
  in
  Trace.exit sp_acc;
  slots

(* The one commit, for client and system journals alike: chunks end
   exactly at block boundaries, so every auto-seal captures the same
   accumulator state one-at-a-time commits would have — a single journal
   is the one-element case, and batched histories stay byte-identical
   (locked down by test_batch_diff).  At most one seal per filled block,
   one publication per call. *)
let commit ?(pool = Domain_pool.sequential) t journals =
  let sp = Trace.enter "ledger.commit" in
  Trace.attr_int sp "batch_size" (List.length journals);
  let rec split_at n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | j :: rest -> split_at (n - 1) (j :: acc) rest
  in
  let rec go acc = function
    | [] -> List.rev acc
    | js ->
        let room = t.cfg.block_size - List.length t.pending_txs in
        if room <= 0 then begin
          seal_block t;
          go acc js
        end
        else begin
          let chunk, rest = split_at room [] js in
          (* leaf hashing is pure per journal: fan it out, keep order *)
          let txs =
            Domain_pool.map_list pool ~label:"tx_hash" ~min_chunk:8
              Journal_codec.digest chunk
          in
          List.iter count_append chunk;
          let slots = install_chunk ~pool t chunk txs in
          if List.length t.pending_txs >= t.cfg.block_size then seal_block t;
          go (List.rev_append slots acc) rest
        end
  in
  let slots = go [] journals in
  publish t;
  Trace.exit sp;
  slots

(* The one receipt maker, for commits and served reads alike.  In
   submission order, [stamp] reads each receipt's timestamp (making the
   simulated sign charge, on the writer) and the block hash and signing
   digest are computed; only the pure π_s signatures fan out over
   [pool], one [sign_many] (one shared inversion) per chunk.  ECDSA
   nonces are deterministic, so the receipts are byte-identical to
   slot-by-slot signing.  [blocks] newest first. *)
let make_receipts ?(pool = Domain_pool.sequential) crypto ~priv ~pub ~blocks
    ~stamp slots =
  (* a journal's block hash, final only when its block is sealed; slots
     come in jsn order, so consecutive ones mostly share a block, hashed
     once for all of them *)
  let last = ref None in
  let block_hash_of jsn =
    let holds (b : Block.t) =
      jsn >= b.Block.start_jsn && jsn < b.Block.start_jsn + b.Block.count
    in
    match !last with
    | Some (b, h) when holds b -> h
    | _ -> (
        match List.find_opt holds blocks with
        | Some b ->
            let h = Block.hash b in
            last := Some (b, h);
            h
        | None -> Hash.zero)
  in
  let unsigned =
    Array.of_list
      (List.map
         (fun s ->
           let timestamp = stamp () in
           Metrics.incr "ledger_receipts_issued_total";
           let jsn = s.journal.Journal.jsn in
           let block_hash = block_hash_of jsn in
           ( Receipt.signing_digest ~jsn ~request_hash:s.request_hash
               ~tx_hash:s.tx ~block_hash ~timestamp,
             (s, block_hash, timestamp) ))
         slots)
  in
  let sigs =
    Domain_pool.map_chunked pool ~label:"receipt_sign" ~min_chunk:2
      (Crypto_profile.sign_many crypto ~priv ~pub)
      (Array.map fst unsigned)
  in
  List.init (Array.length sigs) (fun i ->
      let s, block_hash, timestamp = snd unsigned.(i) in
      { Receipt.jsn = s.journal.Journal.jsn; request_hash = s.request_hash;
        tx_hash = s.tx; block_hash; timestamp; lsp_sig = sigs.(i) })

(* The writer's receipts: stamped from its clock, charged per receipt. *)
let lsp_receipts ?pool t slots =
  make_receipts ?pool t.cfg.crypto ~priv:t.lsp_priv ~pub:t.lsp_pub
    ~blocks:t.blocks slots ~stamp:(fun () ->
      let timestamp = Clock.now t.clock in
      Crypto_profile.charge_sign t.cfg.crypto t.clock;
      timestamp)

let one = function [ x ] -> x | _ -> assert false

(* --- the append pipeline (Fig. 1) ---------------------------------------- *)

(* A client request as the server receives it: payload and metadata, the
   client's π_c and any cosignatures over the same request digest. *)
type request = {
  payload : bytes;
  clues : string list;
  client_ts : int64;
  nonce : int;
  signature : Ecdsa.signature;
  cosigners : (Hash.t * Ecdsa.signature) list;
}

let request_digest ?(kind_tag = "normal") t ~payload ~clues ~client_ts ~nonce =
  Journal.request_digest ~ledger_uri:(uri t) ~kind_tag ~payload ~clues
    ~client_ts ~nonce

(* The client side, in process: stamp and number a request, then sign
   it as [member] (π_c) and as every cosigner. *)
let sign_request t ~(member : Roles.member) ~priv ?(cosigners = []) payload
    clues =
  let client_ts = Clock.now t.clock in
  t.nonce <- t.nonce + 1;
  let nonce = t.nonce in
  let digest = request_digest t ~payload ~clues ~client_ts ~nonce in
  let sign (m : Roles.member) priv =
    sign_with_profile t ~priv ~pub:m.Roles.pub digest
  in
  let signature = sign member priv in
  let cosigners = List.map (fun (m, p) -> (m.Roles.id, sign m p)) cosigners in
  { payload; clues; client_ts; nonce; signature; cosigners }

(* Admission's first rules, checked by every entry point before it
   charges the clock, signs or mutates anything.  An entry names each
   clue at most once: a repeat would index one journal twice under one
   clue, after the journal was already stored and accumulated, and
   leave the clue's CM-Tree entries and cSL disagreeing for good.  And
   no clue is longer than [max_clue_bytes]: the query index keys a clue
   as two nibbles a byte, and a trie path past [Nibble.max_length]
   nibbles makes every query page that carries it undecodable.  A
   client-chosen nonce is non-negative, so every int a journal holds
   is.  [Some (i, why)] is the first entry of [entries], (nonce, clues)
   pairs, that breaks a rule; the local entry points assign their own
   nonces and pass 0. *)
let max_clue_bytes = Ledger_mpt.Nibble.max_length / 2

let first_bad_entry entries =
  List.find_mapi
    (fun i (nonce, clues) ->
      if nonce < 0 then Some (i, "negative nonce")
      else if List.exists (fun c -> String.length c > max_clue_bytes) clues then
        Some (i, Printf.sprintf "clue longer than %d bytes" max_clue_bytes)
      else if List.length (List.sort_uniq String.compare clues) <> List.length clues
      then Some (i, "duplicate clue")
      else None)
    entries

(* Admission, the one place π_c is decided.  Every request digest is
   re-derived and every π_c decided purely across [pool] — one
   [check_many] per chunk — before any state mutation.  Then, in
   submission order, each entry takes its verify charge and its journal
   is stamped with the server's time, stopping at the first bad entry
   with [Error i]: the clock stands where a sequential check loop would
   have left it.  [stamps], when given, are server times the caller's
   own loop already took, verify charges included.  Each admitted
   payload is copied once, so no caller buffer is ever aliased: that
   copy is the one resident copy, shared by the journal and its stream
   record (the store takes ownership). *)
let admit ?(pool = Domain_pool.sequential) ?stamps t ~(member : Roles.member)
    requests =
  let checked =
    Domain_pool.map_chunked pool ~label:"sig_check" ~min_chunk:2
      (fun chunk ->
        let items =
          Array.map
            (fun r ->
              ( request_digest t ~payload:r.payload ~clues:r.clues
                  ~client_ts:r.client_ts ~nonce:r.nonce,
                r.signature ))
            chunk
        in
        Array.map2
          (fun (request_hash, _) ok -> (request_hash, ok))
          items
          (Crypto_profile.check_many t.cfg.crypto ~pub:member.Roles.pub items))
      (Array.of_list requests)
  in
  let stamp i =
    match stamps with
    | Some ts -> ts.(i)
    | None ->
        Crypto_profile.charge_verify t.cfg.crypto t.clock;
        Clock.now t.clock
  in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | r :: rest ->
        let server_ts = stamp i in
        let request_hash, ok = checked.(i) in
        if not ok then Error i
        else
          let j =
            {
              Journal.jsn = t.count + i;
              kind = Journal.Normal;
              client_id = member.Roles.id;
              payload = Bytes.copy r.payload;
              clues = r.clues;
              client_ts = r.client_ts;
              server_ts;
              nonce = r.nonce;
              request_hash;
              client_sig = Some r.signature;
              cosigners = r.cosigners;
            }
          in
          go (i + 1) (j :: acc) rest
  in
  go 0 [] requests

(* The tail every admitted batch shares: commit, seal when asked, and
   the LSP's π_s receipts. *)
let commit_and_sign ?(pool = Domain_pool.sequential) ?(batch = false) t ~seal
    journals =
  let slots = commit ~pool t journals in
  if batch then begin
    Metrics.incr "ledger_batch_appends_total";
    Metrics.observe_int "ledger_batch_size" (List.length journals)
  end;
  if seal then seal_block t;
  lsp_receipts ~pool t slots

let append t ~member ~priv ?(cosigners = []) ?(clues = []) payload_bytes =
  let known (m : Roles.member) = Roles.find t.registry m.Roles.id <> None in
  if not (known member) then invalid_arg "Ledger.append: unknown member";
  if not (List.for_all (fun (m, _) -> known m) cosigners) then
    invalid_arg "Ledger.append: unknown cosigner";
  Option.iter
    (fun (_, why) -> invalid_arg ("Ledger.append: " ^ why))
    (first_bad_entry [ (0, clues) ]);
  let sp = Trace.enter "ledger.append" in
  Trace.attr_int sp "jsn" t.count;
  (* phase 1: client signs the request (π_c) *)
  let sp_sign = Trace.enter "sign" in
  let r = sign_request t ~member ~priv ~cosigners payload_bytes clues in
  Trace.exit sp_sign;
  (* phase 2: proxy ships payload to shared storage, digest to server *)
  Latency_model.charge_net t.cfg.latency t.clock;
  (* server checks π_c before committing (threat-A defence) *)
  let sp_pi_c = Trace.enter "verify_pi_c" in
  let admitted = admit t ~member [ r ] in
  Trace.exit sp_pi_c;
  match admitted with
  | Error _ ->
      Trace.exit sp;
      invalid_arg "Ledger.append: bad client signature"
  | Ok journals ->
      (* phase 3: commit, LSP receipt (π_s) *)
      let receipt = one (commit_and_sign t ~seal:false journals) in
      Trace.exit sp;
      receipt

(* Fig. 1's actual service path: the client signed the request remotely
   and ships (payload, metadata, π_c). *)
let append_signed t ~member_id ~payload ~clues ~client_ts ~nonce ~signature =
  match (Roles.find t.registry member_id, first_bad_entry [ (nonce, clues) ]) with
  | None, _ -> Error "append: unknown member"
  | Some _, Some (_, why) -> Error ("append: " ^ why)
  | Some member, None -> (
      Latency_model.charge_net t.cfg.latency t.clock;
      let r = { payload; clues; client_ts; nonce; signature; cosigners = [] } in
      match admit t ~member [ r ] with
      | Error _ -> Error "append: bad client signature"
      | Ok journals -> Ok (one (commit_and_sign t ~seal:false journals)))

(* Batched append: one network round trip, one storage append and one
   fam accumulation per block-sized chunk and (with [seal]) one trailing
   block seal for the whole batch — the ingestion path behind LedgerDB's
   300K+ TPS claim.  The client-side signing loop takes each entry's
   verify charge and server time as it goes, so every server_ts is
   byte-identical to the sequential sign-verify interleaving; admission
   then decides the π_c in one pooled pass. *)
let append_batch ?(pool = Domain_pool.default ()) t ~member ~priv
    ?(seal = true) entries =
  (match Roles.find t.registry member.Roles.id with
  | Some _ -> ()
  | None -> invalid_arg "Ledger.append_batch: unknown member");
  Option.iter
    (fun (i, why) ->
      invalid_arg (Printf.sprintf "Ledger.append_batch: %s (entry %d)" why i))
    (first_bad_entry (List.map (fun (_, clues) -> (0, clues)) entries));
  Latency_model.charge_net t.cfg.latency t.clock;
  let signed =
    List.map
      (fun (payload, clues) ->
        let r = sign_request t ~member ~priv payload clues in
        Crypto_profile.charge_verify t.cfg.crypto t.clock;
        (r, Clock.now t.clock))
      entries
  in
  let stamps = Array.of_list (List.map snd signed) in
  match admit ~pool ~stamps t ~member (List.map fst signed) with
  | Error _ -> invalid_arg "Ledger.append_batch: bad client signature"
  | Ok journals -> commit_and_sign ~pool ~batch:true t ~seal journals

(* Remote batched append (the [Append_batch] wire request): every entry
   was signed client-side; the whole batch is admitted before anything
   commits, so a bad signature rejects the batch atomically. *)
let append_signed_batch ?(pool = Domain_pool.default ()) t ~member_id entries =
  let checked = List.map (fun (_, clues, _, nonce, _) -> (nonce, clues)) entries in
  match (Roles.find t.registry member_id, first_bad_entry checked) with
  | None, _ -> Error "append_batch: unknown member"
  | Some _, Some (i, why) ->
      Error (Printf.sprintf "append_batch: %s (entry %d)" why i)
  | Some member, None -> (
      Latency_model.charge_net t.cfg.latency t.clock;
      let requests =
        List.map
          (fun (payload, clues, client_ts, nonce, signature) ->
            { payload; clues; client_ts; nonce; signature; cosigners = [] })
          entries
      in
      match admit ~pool t ~member requests with
      | Error i ->
          Error
            (Printf.sprintf "append_batch: bad client signature (entry %d)" i)
      | Ok journals ->
          Ok (commit_and_sign ~pool ~batch:true t ~seal:true journals))

let get_receipt t jsn = one (lsp_receipts t [ slot t jsn ])

let verify_receipt t (r : Receipt.t) =
  let sp = Trace.enter "verify.receipt" in
  Trace.attr_int sp "jsn" r.Receipt.jsn;
  let t0 = if Obs.enabled () then Clock.now t.clock else 0L in
  let digest =
    Receipt.signing_digest ~jsn:r.Receipt.jsn ~request_hash:r.Receipt.request_hash
      ~tx_hash:r.Receipt.tx_hash ~block_hash:r.Receipt.block_hash
      ~timestamp:r.Receipt.timestamp
  in
  let ok = verify_with_profile t ~pub:t.lsp_pub digest r.Receipt.lsp_sig in
  if Obs.enabled () then begin
    Metrics.observe "verify_latency_us"
      (Int64.to_float (Int64.sub (Clock.now t.clock) t0))
  end;
  Trace.exit sp;
  ok

(* --- existence verification -------------------------------------------- *)

let commitment t = Fam.commitment t.fam

let prove_in fam jsn =
  let p = Fam.prove fam jsn in
  if Obs.enabled () then begin
    Metrics.incr "ledger_proofs_served_total";
    Metrics.observe_int "ledger_proof_bytes" (Proof_codec.fam_proof_size p)
  end;
  p

let get_proof t jsn = prove_in t.fam jsn

let verify_existence t ~jsn ~payload_digest proof =
  let sp = Trace.enter "verify.existence" in
  Trace.attr_int sp "jsn" jsn;
  let t0 = if Obs.enabled () then Clock.now t.clock else 0L in
  let ok =
    jsn >= 0 && jsn < t.count
    &&
    let leaf = tx_hash_of t jsn in
    Fam.verify ~commitment:(commitment t) ~leaf proof
    &&
    match payload_digest with
    | None -> true
    | Some d -> (
        match payload t jsn with
        | Some p -> Hash.equal (Hash.digest_bytes p) d
        | None -> false)
  in
  if Obs.enabled () then begin
    Metrics.observe "verify_latency_us"
      (Int64.to_float (Int64.sub (Clock.now t.clock) t0))
  end;
  Trace.exit sp;
  ok

let make_anchor t = Fam.make_anchor t.fam

let prove_extension t ~old_size = Fam.prove_extension t.fam ~old_size

let verify_extension t ~old_size ~old_peaks proof =
  let ok =
    Fam.verify_extension ~delta:t.cfg.fam_delta ~old_size ~old_peaks
      ~new_size:t.count ~new_commitment:(commitment t) proof
  in
  Audit_log.record ~verifier:"server"
    (Extension { old_size; new_size = t.count })
    (if ok then Audit_log.Verified
     else Audit_log.Repudiated "extension proof failed");
  ok
let get_proof_anchored t anchor jsn = Fam.prove_anchored t.fam anchor jsn

let verify_anchored t anchor ~leaf proof =
  Fam.verify_anchored anchor ~current_commitment:(commitment t) ~leaf proof

(* --- clues -------------------------------------------------------------- *)

let cm_tree t = t.cm
let query_index t = t.query
let query_root t = Query_index.root t.query

let clue_jsns t clue =
  match Hashtbl.find_opt t.clue_states clue with
  | Some cs -> Cm_tree_index.to_list cs.csl
  | None -> []

let clue_jsns_in_range t clue ~lo ~hi =
  match Hashtbl.find_opt t.clue_states clue with
  | Some cs -> Cm_tree_index.range cs.csl ~lo ~hi
  | None -> []

let clue_entries t clue = Cm_tree.entries t.cm ~clue

let prove_clue t ~clue ?first ?last () =
  Cm_tree.prove_clue t.cm ~clue ?first ?last ()

let verify_clue_client t (proof : Cm_tree.clue_proof) =
  (* The client retrieves the journals in range, recomputes digests, and
     replays both layers against the latest committed clue root. *)
  let jsns = clue_jsns t proof.Cm_tree.clue in
  let first, last = proof.Cm_tree.version_range in
  let known = ref [] in
  List.iteri
    (fun version jsn ->
      if version >= first && version <= last then begin
        (* the read is charged like any retrieval; the leaf is the
           stored tx hash either way, which for an occulted journal is
           its retained hash (Protocol 2) *)
        ignore (payload t jsn);
        known := (version, tx_hash_of t jsn) :: !known
      end)
    jsns;
  let root =
    match t.blocks with
    | b :: _ -> b.Block.clue_root
    | [] -> Cm_tree.root_hash t.cm
  in
  (* If the trie advanced since the last sealed block, fall back to the
     live root (a real client would request a fresh block commit). *)
  let live_root = Cm_tree.root_hash t.cm in
  Cm_tree.verify_clue ~root:live_root ~known:!known proof
  || Cm_tree.verify_clue ~root ~known:!known proof

let verify_clue_server t ~clue =
  let jsns = clue_jsns t clue in
  let known = List.mapi (fun version jsn -> (version, tx_hash_of t jsn)) jsns in
  known <> [] && Cm_tree.verify_clue_server t.cm ~known ~clue

(* ListTx (§IV-A): filtered journal retrieval. *)
type tx_filter = {
  by_clue : string option;
  by_member : Hash.t option;
  after_ts : int64 option;
  before_ts : int64 option;
  kinds : string list option; (* Journal.kind_tag values *)
}

let any_tx =
  { by_clue = None; by_member = None; after_ts = None; before_ts = None;
    kinds = None }

let list_tx t ?(filter = any_tx) ?(limit = max_int) () =
  (* start from the clue index when a clue filter is present *)
  let candidates =
    match filter.by_clue with
    | Some clue -> clue_jsns t clue
    | None -> List.init t.count Fun.id
  in
  let matches jsn =
    let j = (slot t jsn).journal in
    (match filter.by_member with
    | Some id -> Hash.equal id j.Journal.client_id
    | None -> true)
    && (match filter.after_ts with
       | Some ts -> Int64.compare j.Journal.server_ts ts >= 0
       | None -> true)
    && (match filter.before_ts with
       | Some ts -> Int64.compare j.Journal.server_ts ts < 0
       | None -> true)
    && (match filter.kinds with
       | Some tags -> List.mem (Journal.kind_tag j.Journal.kind) tags
       | None -> true)
  in
  let rec take acc n = function
    | [] -> List.rev acc
    | jsn :: rest ->
        if n = 0 then List.rev acc
        else if matches jsn then take (jsn :: acc) (n - 1) rest
        else take acc n rest
  in
  take [] limit candidates

(* --- world-state (single-layer state accumulator, Fig. 2) ------------------ *)

let world_state_root t =
  if Accumulator.size t.world_state = 0 then None
  else Some (Accumulator.root t.world_state)

let world_state_size t = Accumulator.size t.world_state

let state_leaf ~clue ~tx = Hash.combine (Hash.scatter clue) tx

let prove_state_update t ~clue ~version =
  match Hashtbl.find_opt t.clue_states clue with
  | None -> None
  | Some cs ->
      Option.map
        (fun jsn -> (jsn, Accumulator.prove t.world_state cs.leaves.(version)))
        (Cm_tree_index.nth cs.csl version)

let verify_state_update t ~clue ~tx proof =
  match world_state_root t with
  | None -> false
  | Some root -> Accumulator.verify ~root ~leaf:(state_leaf ~clue ~tx) proof

(* --- time anchoring ----------------------------------------------------- *)

(* Build, cosign and commit one LSP-signed system journal (time anchor,
   occult, pseudo-genesis, purge): a one-journal [commit]. *)
let commit_system ?(signers = []) t kind payload =
  let client_ts = Clock.now t.clock in
  t.nonce <- t.nonce + 1;
  let request_hash =
    request_digest t ~kind_tag:(Journal.kind_tag kind) ~payload ~clues:[]
      ~client_ts ~nonce:t.nonce
  in
  let sign priv pub = sign_with_profile t ~priv ~pub request_hash in
  let client_sig = Some (sign t.lsp_priv t.lsp_pub) in
  let server_ts = Clock.now t.clock in
  let cosigners =
    List.map
      (fun ((m : Roles.member), p) -> (m.Roles.id, sign p m.Roles.pub))
      signers
  in
  let j =
    { Journal.jsn = t.count; kind; client_id = t.lsp_id; payload; clues = [];
      client_ts; server_ts; nonce = t.nonce; request_hash; client_sig;
      cosigners }
  in
  ignore (commit t [ j ]);
  j

let anchor_via_t_ledger t =
  match t.t_ledger with
  | None -> invalid_arg "Ledger.anchor_via_t_ledger: no T-Ledger configured"
  | Some tl -> (
      let digest = commitment t in
      let client_ts = Clock.now t.clock in
      Latency_model.charge_net t.cfg.latency t.clock;
      match
        T_ledger.submit tl ~ledger_id:(Hash.digest_string (uri t)) ~digest
          ~client_ts
      with
      | Error e -> Error e
      | Ok entry ->
          let kind =
            Journal.Time
              (Journal.Via_t_ledger
                 { entry_index = entry.T_ledger.index; client_ts; digest })
          in
          let j = commit_system t kind Bytes.empty in
          Metrics.incr "ledger_time_anchors_total";
          Log.info (fun m ->
              m "anchored commitment %s to T-Ledger entry %d"
                (Hash.short_hex digest) entry.T_ledger.index);
          Ok j)

let anchor_via_tsa t =
  match t.tsa with
  | None -> invalid_arg "Ledger.anchor_via_tsa: no TSA pool configured"
  | Some pool ->
      let digest = commitment t in
      let token = Tsa.pool_endorse pool digest in
      let kind = Journal.Time (Journal.Direct_tsa token) in
      let j = commit_system t kind Bytes.empty in
      Metrics.incr "ledger_time_anchors_total";
      j

let time_journals t =
  List.rev_map (fun jsn -> (slot t jsn).journal) t.time_journals

let t_ledger t = t.t_ledger
let tsa_pool t = t.tsa

(* Physically erase a journal's stored payload and blank its slot; the
   journal record stays as a tombstone (purge, sync occult, reorganize). *)
let erase_payload t jsn =
  let s = t.slots.(jsn) in
  Stream_store.erase t.journal_stream s.store_index;
  t.slots.(jsn) <-
    { s with journal = { s.journal with Journal.payload = Bytes.empty } }

(* --- purge --------------------------------------------------------------- *)

type purge_request = {
  upto_jsn : int;
  survivors : int list;
  erase_fam_nodes : bool;
}

let affected_members t ~upto_jsn =
  let seen = Hashtbl.create 16 in
  for i = 0 to min upto_jsn t.count - 1 do
    let id = t.slots.(i).journal.Journal.client_id in
    if not (Hash.equal id t.lsp_id) then
      Hashtbl.replace seen (Hash.to_hex id) id
  done;
  Hashtbl.fold
    (fun _ id acc ->
      match Roles.find t.registry id with Some m -> m :: acc | None -> acc)
    seen []

let roster_digest t =
  let buf = Buffer.create 256 in
  List.iter
    (fun m -> Buffer.add_bytes buf (Hash.to_bytes m.Roles.id))
    (List.sort
       (fun a b -> Hash.compare a.Roles.id b.Roles.id)
       (Roles.members t.registry))
  |> ignore;
  Hash.digest_bytes (Buffer.to_bytes buf)

let purge t ~request ~signers =
  let { upto_jsn; survivors; erase_fam_nodes } = request in
  if upto_jsn <= 0 || upto_jsn > t.count then Error "purge point out of range"
  else begin
    (* Prerequisite 1: DBA + every affected member must sign. *)
    let required =
      (Roles.with_role t.registry Roles.Dba @ affected_members t ~upto_jsn)
      |> List.sort_uniq (fun a b -> Hash.compare a.Roles.id b.Roles.id)
    in
    let signer_ids =
      List.map (fun (m, _) -> Hash.to_hex m.Roles.id) signers
    in
    let missing =
      List.filter
        (fun m -> not (List.mem (Hash.to_hex m.Roles.id) signer_ids))
        required
    in
    if missing <> [] then
      Error
        ("purge: missing required signatures from "
        ^ String.concat ", " (List.map (fun m -> m.Roles.name) missing))
    else begin
      (* copy survivors into the survival stream before erasing *)
      let kept =
        List.filter_map
          (fun jsn ->
            if jsn >= 0 && jsn < upto_jsn then begin
              match
                Stream_store.read_opt t.journal_stream (slot t jsn).store_index
              with
              | Some p ->
                  ignore
                    (Stream_store.append t.survival_stream
                       (Snapshot.survivor_record ~jsn p));
                  Some jsn
              | None -> None
            end
            else None)
          survivors
      in
      t.survivor_jsns <- kept @ t.survivor_jsns;
      (* pseudo-genesis first, then the doubly-linked purge journal *)
      let pg_jsn = t.count in
      let purge_jsn = pg_jsn + 1 in
      let snapshot =
        {
          Journal.replaced_purge_jsn = purge_jsn;
          fam_commitment = commitment t;
          clue_root = Cm_tree.root_hash t.cm;
          member_roster = roster_digest t;
        }
      in
      ignore (commit_system t (Journal.Pseudo_genesis snapshot) Bytes.empty);
      let info =
        { Journal.purge_upto = upto_jsn; pseudo_genesis_jsn = pg_jsn;
          survivors = kept }
      in
      (* the purge journal carries the multi-signature over its request *)
      let pj = commit_system ~signers t (Journal.Purge info) Bytes.empty in
      (* physical erasure *)
      for i = 0 to upto_jsn - 1 do
        if not (List.mem i kept) && t.slots.(i).store_index >= 0 then
          erase_payload t i
      done;
      if erase_fam_nodes then begin
        let e, _ = Fam.epoch_of_jsn t.fam (upto_jsn - 1) in
        Fam.purge_epochs_before t.fam e
      end;
      seal_block t;
      publish t;
      Metrics.incr "ledger_purges_total";
      Log.info (fun m ->
          m "purged journals [0,%d) with %d survivors; pseudo-genesis at %d"
            upto_jsn (List.length kept) pg_jsn);
      Ok pj
    end
  end

let pseudo_genesis t =
  Option.map (fun jsn -> (slot t jsn).journal) t.pseudo_genesis_jsn

let survival_jsns t = List.sort compare t.survivor_jsns

let read_survivor t jsn =
  let found = ref None in
  Stream_store.iter t.survival_stream (fun _ rec_ ->
      match Snapshot.survivor_of_record rec_ with
      | Some (j, p) when j = jsn -> found := Some p
      | Some _ | None -> ());
  !found

(* --- occult --------------------------------------------------------------- *)

type occult_mode = Sync | Async

let occult t ~target_jsn ~mode ~signers ~reason =
  if target_jsn < 0 || target_jsn >= t.count then Error "occult: bad target"
  else if Bitmap_index.mem t.occult_bits target_jsn then
    Error "occult: already occulted"
  else begin
    (* Prerequisite 2: DBA and a regulator must sign. *)
    let has role =
      List.exists (fun (m, _) -> m.Roles.role = role) signers
    in
    if not (has Roles.Dba && has Roles.Regulator) then
      Error "occult: requires DBA and regulator signatures"
    else begin
      let retained_hash = tx_hash_of t target_jsn in
      let kind = Journal.Occult { target_jsn; retained_hash } in
      let j = commit_system ~signers t kind (Bytes.of_string reason) in
      Metrics.incr "ledger_occults_total";
      Log.info (fun m ->
          m "occulted journal %d (%s)" target_jsn
            (match mode with Sync -> "sync" | Async -> "async"));
      (match mode with
      | Sync -> erase_payload t target_jsn
      | Async -> t.occult_pending <- target_jsn :: t.occult_pending);
      publish t;
      Ok j
    end
  end

let is_occulted t jsn = Bitmap_index.mem t.occult_bits jsn

let occult_by_clue t ~clue ~mode ~signers ~reason =
  (* "occult by clue is a common case" (§III-A3): hide every journal the
     clue touches, in ascending jsn order, stopping on the first error. *)
  let targets =
    List.filter (fun jsn -> not (is_occulted t jsn)) (clue_jsns t clue)
  in
  if targets = [] then Error "occult_by_clue: no (remaining) journals for clue"
  else begin
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | jsn :: rest -> (
          match occult t ~target_jsn:jsn ~mode ~signers ~reason with
          | Ok j -> go (j :: acc) rest
          | Error e -> Error e)
    in
    go [] targets
  end

let reorganize t =
  let n = List.length t.occult_pending in
  List.iter (erase_payload t) t.occult_pending;
  t.occult_pending <- [];
  if n > 0 then publish t;
  n

(* --- introspection --------------------------------------------------------- *)

(* Reclaim storage slots of erased payloads (post-purge/occult): compact
   the journal stream and remap the surviving slots' storage addresses.
   The remapped slots go into a FRESH array (and the compaction itself
   swaps in a fresh record array), so a read snapshot taken before the
   compaction keeps a consistent pair — old slot addresses over the old
   pinned records — while new snapshots see the compacted layout. *)
let compact_storage t =
  let remap = Hashtbl.create 64 in
  let reclaimed =
    Stream_store.compact t.journal_stream (fun old_i new_i ->
        Hashtbl.replace remap old_i new_i)
  in
  let fresh = Array.make (Array.length t.slots) dummy_slot in
  for jsn = 0 to t.count - 1 do
    let s = t.slots.(jsn) in
    let store_index =
      match Hashtbl.find_opt remap s.store_index with
      | Some i -> i
      | None -> -1 (* erased record: no backing slot *)
    in
    fresh.(jsn) <- { s with store_index }
  done;
  t.slots <- fresh;
  publish t;
  reclaimed

let stored_digests t = Fam.stored_digests t.fam + Cm_tree.stored_digests t.cm

module Unsafe = struct
  let rewrite_payload t ~jsn payload_bytes =
    let s = slot t jsn in
    t.slots.(jsn) <-
      { s with journal = { s.journal with Journal.payload = payload_bytes } };
    publish t

  let rewrite_payload_consistent t ~jsn payload_bytes =
    let s = slot t jsn in
    let j = s.journal in
    let request_hash =
      Journal.request_digest ~ledger_uri:(uri t)
        ~kind_tag:(Journal.kind_tag j.Journal.kind) ~payload:payload_bytes
        ~clues:j.Journal.clues ~client_ts:j.Journal.client_ts
        ~nonce:j.Journal.nonce
    in
    let journal = { j with Journal.payload = payload_bytes; request_hash } in
    (* a self-consistent LSP also refreshes its claimed leaf digest *)
    t.slots.(jsn) <-
      { s with journal; request_hash; tx = Journal_codec.digest journal };
    publish t

  let forge_server_ts t ~jsn ts =
    let s = slot t jsn in
    t.slots.(jsn) <-
      { s with journal = { s.journal with Journal.server_ts = ts } };
    publish t
end

(* --- read snapshots --------------------------------------------------------- *)

(* Accessors over a published view.  Lookups share their bodies with the
   writer's accessors above; payload reads go through the stream pin
   (never the writer's latency clock) and receipts come from the one
   receipt maker, stamped with the pinned publication time and no
   clock charge. *)
module Read_view = struct
  type nonrec t = view

  let epoch v = v.v_epoch
  let name v = v.v_name
  let size v = v.v_size
  let block_count v = v.v_block_count
  let members_wire v = v.v_members
  let pseudo_genesis_jsn v = v.v_pseudo_genesis
  let published_at v = v.v_now
  let block v h = block_in v.v_blocks ~count:v.v_block_count h
  let slot v jsn = slot_in v.v_slots ~size:v.v_size jsn
  let journal v jsn = (slot v jsn).journal
  let tx_hash_of v jsn = (slot v jsn).tx

  let payload v jsn =
    let s = slot v jsn in
    if s.store_index < 0 then None
    else Stream_store.read_pinned v.v_store s.store_index

  let commitment v = Fam.commitment v.v_fam
  let get_proof v jsn = prove_in v.v_fam jsn
  let prove_extension v ~old_size = Fam.prove_extension v.v_fam ~old_size
  let clue_root v = Cm_tree.root_hash v.v_cm

  let prove_clue v ~clue ?first ?last () =
    Cm_tree.prove_clue v.v_cm ~clue ?first ?last ()

  let query_index v = v.v_query
  let query_root v = Query_index.root v.v_query

  let receipt v jsn =
    one
      (make_receipts v.v_crypto ~priv:v.v_lsp_priv ~pub:v.v_lsp_pub
         ~blocks:v.v_blocks ~stamp:(fun () -> v.v_now) [ slot v jsn ])
end

(* --- persistence ------------------------------------------------------------ *)

(* A snapshot is a directory in the {!Snapshot} format.  [load] replays
   it through [install_chunk], rebuilding every tree and index, and
   compares the recorded checkpoints, so framing-valid but semantically
   tampered snapshots are still refused. *)

type load_report = {
  replayed : int;
  declared_size : int;
  torn_tail : bool;
  dropped_bytes : int;
  blocks_dropped : int;
  checkpoint : [ `Verified | `Partial ];
}

let save t ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write = Snapshot.write ~dir in
  write Snapshot.journals_file (fun oc ->
      for jsn = 0 to t.count - 1 do
        let s = t.slots.(jsn) in
        (* store the payload as it currently exists (erased => empty) *)
        let payload =
          if s.store_index < 0 then Bytes.empty
          else
            Option.value ~default:Bytes.empty
              (Stream_store.read_opt t.journal_stream s.store_index)
        in
        Snapshot.output_journal oc ~tx:s.tx
          (Journal_codec.encode { s.journal with Journal.payload })
      done);
  write Snapshot.members_file (fun oc ->
      List.iter
        (fun (m : Roles.member) ->
          Snapshot.output_member oc
            (m.Roles.name, Roles.role_to_string m.Roles.role,
             Ecdsa.public_key_to_bytes m.Roles.pub)
            ~cert:
              (Option.map
                 (fun (c : Roles.certificate) -> c.Roles.signature)
                 (Roles.certificate_of t.registry m.Roles.id)))
        (Roles.members t.registry));
  write Snapshot.blocks_file (fun oc ->
      List.iter (Snapshot.output_block oc) (blocks t));
  write Snapshot.survivors_file (fun oc ->
      Stream_store.iter t.survival_stream (fun _ r -> Framing.write oc r));
  write Snapshot.meta_file (fun oc ->
      Snapshot.output_checkpoint oc
        { Snapshot.name = t.cfg.name; size = t.count;
          block_count = t.block_count; commitment = commitment t;
          clue_root = Cm_tree.root_hash t.cm; nonce = t.nonce;
          pseudo_genesis = t.pseudo_genesis_jsn })

let load_verbose ?(config = default_config) ?t_ledger ?tsa ?(recover = false)
    ~clock ~dir () =
  let in_dir f = Filename.concat dir f in
  try
    let meta = Snapshot.read_checkpoint (in_dir Snapshot.meta_file) in
    if meta.Snapshot.name <> config.name then
      failwith
        (Printf.sprintf "meta.ldb: snapshot of '%s' but config says '%s'"
           meta.Snapshot.name config.name);
    (* every small file is decoded before the replay builds any tree *)
    let blocks = Snapshot.read_blocks (in_dir Snapshot.blocks_file) in
    let survivors = Snapshot.read_survivors (in_dir Snapshot.survivors_file) in
    let t = create ~config ?t_ledger ?tsa ~clock () in
    Snapshot.iter_members (in_dir Snapshot.members_file)
      (fun ~name ~role ~certificate pub ->
        ignore (register_member t ?certificate ~name ~role pub));
    (* journals: replay with retained tx hashes through the commit path's
       [install_chunk], without its auto-seal and publication.  Each
       frame is CRC-checked before any byte reaches the codec; the first
       complete-but-invalid frame names the first bad jsn and refuses the
       snapshot, while a torn final frame (crash mid-save) is
       recoverable when [recover] is set. *)
    let journals = in_dir Snapshot.journals_file in
    let (), ending =
      Snapshot.fold_journals journals ~init:() (fun () ~tx enc ->
          match Journal_codec.decode enc with
          | None ->
              failwith
                (Printf.sprintf
                   "journals.ldb: undecodable record — first bad jsn %d" t.count)
          | Some j when j.Journal.jsn <> t.count ->
              failwith
                (Printf.sprintf
                   "journals.ldb: record claims jsn %d in slot %d — first bad \
                    jsn %d"
                   j.Journal.jsn t.count t.count)
          | Some j ->
              ignore (install_chunk t [ j ] [ tx ]);
              Some ())
    in
    let torn_tail = ending.Framing.stop = Framing.Torn in
    (match ending.Framing.stop with
    | Framing.End -> ()
    | Framing.Corrupt ->
        failwith
          (Printf.sprintf
             "journals.ldb: corrupt record at byte %d — first bad jsn %d"
             ending.Framing.offset t.count)
    | Framing.Rejected ->
        failwith
          (Printf.sprintf "journals.ldb: short record — first bad jsn %d"
             t.count)
    | Framing.Torn ->
        if not recover then
          failwith
            (Printf.sprintf
               "journals.ldb: torn tail after jsn %d (%d trailing bytes); \
                recovery disabled"
               (t.count - 1) ending.Framing.dropped_bytes);
        (* a recovered torn tail is truncated off the file so the next
           save/load cycle starts from a sound prefix *)
        Framing.truncate_file journals ~keep:ending.Framing.offset);
    (* blocks: restore verbatim (timestamps included, so hashes match).
       After a torn-tail recovery, blocks covering journals that did not
       survive are dropped — they will be re-sealed as the ledger grows
       back. *)
    let covered = ref 0 in
    let blocks_dropped = ref 0 in
    List.iter
      (fun (b : Block.t) ->
        if torn_tail && b.Block.start_jsn + b.Block.count > t.count then
          incr blocks_dropped
        else begin
          t.blocks <- b :: t.blocks;
          t.block_count <- t.block_count + 1;
          covered := b.Block.start_jsn + b.Block.count
        end)
      blocks;
    (* replay queued every leaf, newest first; only the tail journals
       (unsealed at save time) stay in the open block *)
    t.pending_txs <- List.filteri (fun i _ -> i < t.count - !covered) t.pending_txs;
    List.iter
      (fun (jsn, payload) ->
        ignore
          (Stream_store.append t.survival_stream
             (Snapshot.survivor_record ~jsn payload));
        t.survivor_jsns <- jsn :: t.survivor_jsns)
      survivors;
    (* Re-derive each journal's leaf from its content.  A mismatch with a
       non-empty payload is tampering; with an empty payload it marks a
       record whose payload was erased (occult/purge) before the save. *)
    for jsn = 0 to t.count - 1 do
      let s = t.slots.(jsn) in
      if not (Hash.equal (Journal_codec.digest s.journal) s.tx) then begin
        if Bytes.length s.journal.Journal.payload = 0 then erase_payload t jsn
        else
          failwith
            (Printf.sprintf
               "journal %d: content does not match its retained leaf" jsn)
      end
    done;
    t.nonce <- meta.Snapshot.nonce;
    (* integrity checkpoints.  After a torn-tail recovery the replayed
       prefix is shorter than the declared size, so the recorded
       checkpoint cannot reproduce: the load still succeeds but the
       report says [`Partial] — callers must re-verify against an
       external anchor (T-Ledger entry, receipts) before trusting it. *)
    let declared_size = meta.Snapshot.size in
    let partial = torn_tail && t.count < declared_size in
    if not partial then begin
      let mismatch what recorded replayed =
        failwith
          (Printf.sprintf "%s mismatch: meta says %s, replayed %s" what
             recorded replayed)
      in
      let check_int what recorded replayed =
        if recorded <> replayed then
          mismatch what (string_of_int recorded) (string_of_int replayed)
      in
      let check_hash what recorded replayed =
        if not (Hash.equal recorded replayed) then
          mismatch what (Hash.short_hex recorded) (Hash.short_hex replayed)
      in
      check_int "size" declared_size t.count;
      if t.count > 0 then
        check_hash "commitment" meta.Snapshot.commitment (commitment t);
      check_hash "clue root" meta.Snapshot.clue_root (Cm_tree.root_hash t.cm);
      check_int "block count" meta.Snapshot.block_count t.block_count;
      let pg = function Some j -> string_of_int j | None -> "none" in
      if meta.Snapshot.pseudo_genesis <> t.pseudo_genesis_jsn then
        mismatch "pseudo-genesis" (pg meta.Snapshot.pseudo_genesis)
          (pg t.pseudo_genesis_jsn)
    end;
    Metrics.incr "ledger_loads_total";
    if torn_tail then Metrics.incr "ledger_recovered_journals_total";
    Audit_log.record ~verifier:"loader" (Commitment t.count)
      (if partial then
         Audit_log.Degraded "torn tail: checkpoint not reproducible"
       else Audit_log.Verified);
    publish t;
    Ok
      ( t,
        { replayed = t.count; declared_size; torn_tail;
          dropped_bytes = ending.Framing.dropped_bytes;
          blocks_dropped = !blocks_dropped;
          checkpoint = (if partial then `Partial else `Verified) } )
  with
  | Failure msg -> Error msg
  | Sys_error msg -> Error msg
  | Stream_store.Read_error e -> Error (Stream_store.read_error_to_string e)
  | End_of_file -> Error "unexpected end of file"

let load ?config ?t_ledger ?tsa ~clock ~dir () =
  Result.map fst (load_verbose ?config ?t_ledger ?tsa ~recover:false ~clock ~dir ())
