open Ledger_crypto
open Ledger_storage
open Ledger_merkle
open Ledger_core
open Ledger_obs
open Ledger_par

type config = { base : Ledger.config; shards : int }

let default_config = { base = Ledger.default_config; shards = 4 }

(* A one-shard fleet keeps the base name so every name-derived secret
   (LSP key, member key seeds, ledger URI) matches the unsharded ledger
   bit for bit — the N=1 differential property depends on this. *)
let shard_name cfg i =
  if cfg.shards = 1 then cfg.base.Ledger.name
  else Printf.sprintf "%s/s%d" cfg.base.Ledger.name i

let shard_config cfg i = { cfg.base with Ledger.name = shard_name cfg i }

type shard_state = { ledger : Ledger.t; clock : Clock.t }

type t = {
  cfg : config;
  router : Shard_router.t;
  members : shard_state array;
  fleet_clock : Clock.t;
  service_priv : Ecdsa.private_key;
  service_pub : Ecdsa.public_key;
  sealed : (Super_root.sealed list * int) Atomic.t;
      (* (newest-first sealed epochs, count).  Written only by the
         serialized mutation path, read from any domain: the pair is
         immutable once published, so one [Atomic.get] is a coherent
         snapshot of the fleet's sealed history. *)
}

(* The fleet's own signing identity (epoch announcements): derived from
   the base name like every other name-seeded key, and distinct from any
   shard's LSP key. *)
let service_keys base_name = Ecdsa.generate ~seed:("fleet:" ^ base_name)

let create ?(config = default_config) ~clock () =
  if config.shards < 1 || config.shards > 1024 then
    invalid_arg "Sharded_ledger.create: shards must be in [1,1024]";
  let members =
    Array.init config.shards (fun i ->
        let shard_clock =
          if config.shards = 1 then clock
          else Clock.create ~start:(Clock.now clock) ()
        in
        let ledger =
          Ledger.create ~config:(shard_config config i) ~clock:shard_clock ()
        in
        { ledger; clock = shard_clock })
  in
  let service_priv, service_pub = service_keys config.base.Ledger.name in
  {
    cfg = config;
    router = Shard_router.create ~shards:config.shards;
    members;
    fleet_clock = clock;
    service_priv;
    service_pub;
    sealed = Atomic.make ([], 0);
  }

let config t = t.cfg
let router t = t.router
let shard_count t = t.cfg.shards

let member_state t i =
  if i < 0 || i >= Array.length t.members then
    invalid_arg
      (Printf.sprintf "Sharded_ledger: shard %d out of range [0,%d)" i
         (Array.length t.members));
  t.members.(i)

let shard t i = (member_state t i).ledger
let shard_clock t i = (member_state t i).clock
let fleet_clock t = t.fleet_clock
let shard_healthy t i = Ledger.store_healthy (member_state t i).ledger
let service_public_key t = t.service_pub

let replace_shard t i ~ledger ~clock =
  ignore (member_state t i);
  t.members.(i) <- { ledger; clock }

let total_size t =
  Array.fold_left (fun acc m -> acc + Ledger.size m.ledger) 0 t.members

let new_member t ~name ~role =
  (* seed from the base name — exactly what Ledger.new_member does on
     the unsharded ledger — then register the same key everywhere *)
  let priv, pub = Ecdsa.generate ~seed:(t.cfg.base.Ledger.name ^ ":" ^ name) in
  let members =
    Array.map
      (fun m -> Ledger.register_member m.ledger ~name ~role pub)
      t.members
  in
  (members.(0), priv)

(* --- routed append --------------------------------------------------------- *)

let shard_metric fmt i = Printf.sprintf fmt i

let append t ~member ~priv ?(clues = []) payload =
  let i = Shard_router.route t.router ~clues ~payload in
  let m = member_state t i in
  let receipt = Ledger.append m.ledger ~member ~priv ~clues payload in
  Metrics.incr (shard_metric "shard_appends_total_s%d" i);
  (i, receipt)

let append_batch ?(pool = Domain_pool.default ()) t ~member ~priv
    ?(seal = true) entries =
  (* partition by owning shard, remembering each entry's submission
     index so results come back in submission order *)
  let buckets = Array.make (shard_count t) [] in
  List.iteri
    (fun pos (payload, clues) ->
      let i = Shard_router.route t.router ~clues ~payload in
      buckets.(i) <- (pos, payload, clues) :: buckets.(i))
    entries;
  let results = Array.make (List.length entries) None in
  (* shards are independent kernels on forked clocks, so per-shard
     appends fan out across the pool; every task touches only its own
     shard state and its own [results] slots.  A 1-shard fleet shares
     the fleet clock but then has exactly one task. *)
  Domain_pool.parallel_for pool ~label:"shard_append" ~n:(shard_count t)
    (fun i ->
      match List.rev buckets.(i) with
      | [] -> ()
      | in_order ->
          let m = member_state t i in
          let receipts =
            Ledger.append_batch ~pool m.ledger ~member ~priv ~seal
              (List.map (fun (_, payload, clues) -> (payload, clues)) in_order)
          in
          Metrics.incr (shard_metric "shard_appends_total_s%d" i)
            ~by:(List.length in_order);
          List.iter2
            (fun (pos, _, _) r -> results.(pos) <- Some (i, r))
            in_order receipts);
  Array.to_list results
  |> List.map (function
       | Some r -> r
       | None -> assert false (* every position was bucketed *))

(* --- epoch sealing --------------------------------------------------------- *)

let advance_to clock target =
  let d = Int64.sub target (Clock.now clock) in
  if d > 0L then Clock.advance clock d

type seal_policy = All_or_nothing | Degraded_skip

(* What a Degraded_skip epoch records for an absent shard: its last
   sealed root and size, or — if the shard never sealed — a
   domain-separated placeholder over an empty history. *)
let carried_entry t i =
  match fst (Atomic.get t.sealed) with
  | s :: _ -> (s.Super_root.shard_roots.(i), s.Super_root.shard_sizes.(i))
  | [] ->
      (Hash.digest_string (Printf.sprintf "ledgerdb:carried-empty:%d" i), 0)

let seal_epoch ?(pool = Domain_pool.default ()) ?(policy = All_or_nothing)
    ?(skip = []) t =
  let sealed_rev, sealed_count = Atomic.get t.sealed in
  let sp = Trace.enter "super_root_seal" in
  Trace.attr_int sp "epoch" sealed_count;
  let n = Array.length t.members in
  List.iter
    (fun i ->
      if i < 0 || i >= n then
        invalid_arg
          (Printf.sprintf "Sharded_ledger.seal_epoch: skip shard %d out of range"
             i))
    skip;
  (* a shard is absent when the supervisor says so ([skip]) or its store
     probe fails; [skip] lets a quarantined shard be excluded without
     touching it at all *)
  let absent = Array.make n false in
  List.iter (fun i -> absent.(i) <- true) skip;
  Array.iteri
    (fun i m ->
      if (not absent.(i)) && not (Ledger.store_healthy m.ledger) then
        absent.(i) <- true)
    t.members;
  let dead = ref [] in
  Array.iteri (fun i a -> if a then dead := i :: !dead) absent;
  let dead = List.rev !dead in
  let result =
    match (policy, dead) with
    | All_or_nothing, i :: _ ->
        Metrics.incr "shard_seals_refused_total";
        Error
          (Printf.sprintf
             "seal refused: shard %d store unhealthy (no partial super-root)"
             i)
    | Degraded_skip, _ when List.length dead = n ->
        Metrics.incr "shard_seals_refused_total";
        Error "seal refused: every shard is unavailable (no quorum to carry)"
    | (All_or_nothing | Degraded_skip), _ -> (
        try
          (* per-shard seals fan out, absent shards untouched: each task
             touches only its own shard; a Sys_error raised inside a
             pooled task cancels the rest and re-raises here, landing in
             the same refusal below *)
          Domain_pool.parallel_for pool ~label:"shard_seal" ~n (fun i ->
              if not absent.(i) then Ledger.seal_block t.members.(i).ledger);
          (* the barrier: every live clock — shards and coordinator —
             meets at the fleet maximum.  Absent shards' clocks are left
             alone; repair resynchronizes them on re-admission. *)
          let horizon =
            Array.fold_left
              (fun acc m -> max acc (Clock.now m.clock))
              (Clock.now t.fleet_clock) t.members
          in
          advance_to t.fleet_clock horizon;
          Array.iteri
            (fun i m -> if not absent.(i) then advance_to m.clock horizon)
            t.members;
          let presence =
            Array.init n (fun i ->
                if absent.(i) then Super_root.Carried else Super_root.Sealed)
          in
          let sealed =
            Super_root.seal ~epoch:sealed_count ~at:horizon ~presence
              (Array.init n (fun i ->
                   if absent.(i) then carried_entry t i
                   else
                     let m = t.members.(i) in
                     (Ledger.commitment m.ledger, Ledger.size m.ledger)))
          in
          Atomic.set t.sealed (sealed :: sealed_rev, sealed_count + 1);
          Metrics.incr "shard_epochs_sealed_total";
          if dead <> [] then begin
            Metrics.incr "shard_epochs_degraded_total";
            Metrics.incr "shard_roots_carried_total" ~by:(List.length dead)
          end;
          Ok sealed
        with Sys_error msg ->
          Metrics.incr "shard_seals_refused_total";
          Error (Printf.sprintf "seal refused: %s (no partial super-root)" msg))
  in
  Trace.exit sp;
  result

let epochs t = List.rev (fst (Atomic.get t.sealed))

let latest t =
  match fst (Atomic.get t.sealed) with [] -> None | s :: _ -> Some s

let epoch t e =
  List.find_opt (fun (s : Super_root.sealed) -> s.Super_root.epoch = e)
    (fst (Atomic.get t.sealed))

let super_digest t = Option.map Super_root.commitment (latest t)

let anchor_epoch t pool =
  match latest t with
  | None -> invalid_arg "Sharded_ledger.anchor_epoch: no sealed epoch"
  | Some sealed ->
      Ledger_timenotary.Tsa.pool_endorse pool (Super_root.commitment sealed)

(* --- signed epoch announcements (non-equivocation gossip) ------------------ *)

let announce_sealed t (sealed : Super_root.sealed) =
  Gossip.sign ~priv:t.service_priv ~ledger:t.cfg.base.Ledger.name
    ~epoch:sealed.Super_root.epoch
    ~super:(Super_root.commitment sealed)
    ~sealed_at:sealed.Super_root.sealed_at

let announce t = Option.map (announce_sealed t) (latest t)
let announce_epoch t e = Option.map (announce_sealed t) (epoch t e)

module Unsafe = struct
  (* An equivocating service: mint a second validly signed announcement
     for an already-sealed epoch whose super-root differs from the one
     actually sealed.  Deterministic, so differential runs agree on the
     forged root.  Gossip peers holding both announcements fold them
     into self-verifying fork evidence. *)
  let equivocate t ~epoch:e =
    match epoch t e with
    | None -> None
    | Some sealed ->
        let forged_super =
          Hash.combine
            (Super_root.commitment sealed)
            (Hash.digest_string "ledgerdb:equivocation")
        in
        Some
          (Gossip.sign ~priv:t.service_priv ~ledger:t.cfg.base.Ledger.name
             ~epoch:e ~super:forged_super
             ~sealed_at:sealed.Super_root.sealed_at)
end

(* --- cross-shard proofs ---------------------------------------------------- *)

type sharded_proof = {
  shard : int;
  jsn : int;
  fam : Fam.proof;
  inclusion : Super_root.inclusion;
}

(* Served from the shard's published view and the atomically published
   sealed history, so it is safe from any domain, concurrently with the
   writer. *)
let prove t ~shard:i ~jsn =
  let module RV = Ledger.Read_view in
  let v = Ledger.read_view (member_state t i).ledger in
  match latest t with
  | None -> Error "no sealed epoch: seal_epoch before proving"
  | Some sealed ->
      if not (Hash.equal (RV.commitment v) sealed.Super_root.shard_roots.(i))
      then
        Error
          (Printf.sprintf
             "shard %d has committed past epoch %d's sealed root; reseal" i
             sealed.Super_root.epoch)
      else if jsn < 0 || jsn >= RV.size v then
        Error (Printf.sprintf "jsn %d out of range on shard %d" jsn i)
      else
        Ok
          {
            shard = i;
            jsn;
            fam = RV.get_proof v jsn;
            inclusion = Super_root.prove sealed ~shard:i;
          }

let verify_proof t ~super ?payload_digest proof =
  proof.inclusion.Super_root.shard = proof.shard
  && Super_root.verify ~super proof.inclusion
  &&
  let m = member_state t proof.shard in
  proof.jsn >= 0
  && proof.jsn < Ledger.size m.ledger
  &&
  let leaf = Ledger.tx_hash_of m.ledger proof.jsn in
  Fam.verify ~commitment:proof.inclusion.Super_root.shard_root ~leaf proof.fam
  &&
  match payload_digest with
  | None -> true
  | Some d -> (
      match Ledger.payload m.ledger proof.jsn with
      | Some p -> Hash.equal (Hash.digest_bytes p) d
      | None -> false)

let w_sharded_proof w p =
  Wire.w_int w p.shard;
  Wire.w_int w p.jsn;
  Proof_codec.w_fam_proof w p.fam;
  Super_root.w_inclusion w p.inclusion

let r_sharded_proof r =
  let shard = Wire.r_int r in
  let jsn = Wire.r_int r in
  let fam = Proof_codec.r_fam_proof r in
  let inclusion = Super_root.r_inclusion r in
  { shard; jsn; fam; inclusion }

let encode_sharded_proof p = Wire.encode (fun w -> w_sharded_proof w p)

let decode_sharded_proof b = Wire.decode b r_sharded_proof
