open Ledger_crypto

type t = { forest : Forest.t; height : int option }

let create ?height () =
  (match height with
  | Some h when h < 1 || h > 30 -> invalid_arg "Shrubs.create: bad height"
  | Some _ | None -> ());
  { forest = Forest.create (); height }

let capacity t = Option.map (fun h -> 1 lsl h) t.height
let size t = Forest.size t.forest

let is_full t =
  match capacity t with Some c -> size t >= c | None -> false

let append t h =
  if is_full t then invalid_arg "Shrubs.append: tree is full";
  Forest.append t.forest h

let append_many ?pool t hs =
  if hs = [] then size t (* empty batch: no-op, no overflow check needed *)
  else begin
    (match capacity t with
    | Some c when size t + List.length hs > c ->
        invalid_arg "Shrubs.append_many: batch would overflow the tree"
    | Some _ | None -> ());
    Forest.append_many ?pool t.forest hs
  end

let leaf t = Forest.leaf t.forest
let peaks t = Forest.peaks t.forest
let commitment t = Proof.node_set_digest (peaks t)

let root t =
  match t.height with
  | None -> invalid_arg "Shrubs.root: unbounded tree has no final root"
  | Some h ->
      if not (is_full t) then invalid_arg "Shrubs.root: tree is not full";
      Forest.node t.forest ~level:h ~index:0

type proof = { path : Proof.path; peak_index : int; peak_set : Proof.node_set }

let prove t i =
  let path, peak_index = Forest.prove_to_peak t.forest i in
  { path; peak_index; peak_set = peaks t }

let verify ~commitment ~leaf proof =
  Hash.equal (Proof.node_set_digest proof.peak_set) commitment
  &&
  match List.nth_opt proof.peak_set proof.peak_index with
  | None -> false
  | Some peak -> Hash.equal (Proof.apply leaf proof.path) peak

let stored_digests t = Forest.stored_digests t.forest
let forest t = t.forest
let freeze t = { forest = Forest.freeze t.forest; height = t.height }

let prove_consistency t ~old_size = Forest.prove_consistency t.forest ~old_size
let verify_consistency = Forest.verify_consistency
