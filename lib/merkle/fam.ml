open Ledger_crypto

type t = {
  delta : int;
  epoch_capacity : int;
  mutable epochs : Shrubs.t array; (* oldest first; the last one is live *)
  mutable epoch_count : int;
  mutable sealed_roots : Hash.t array; (* oldest first *)
  mutable sealed_count : int;
  mutable size : int;
}

let create ~delta =
  if delta < 1 || delta > 28 then invalid_arg "Fam.create: bad delta";
  let first = Shrubs.create ~height:delta () in
  {
    delta;
    epoch_capacity = 1 lsl delta;
    epochs = Array.make 4 first;
    epoch_count = 1;
    sealed_roots = Array.make 4 Hash.zero;
    sealed_count = 0;
    size = 0;
  }

let size t = t.size
let epoch_count t = t.epoch_count

let current t = t.epochs.(t.epoch_count - 1)

let push_epoch t e =
  if t.epoch_count >= Array.length t.epochs then begin
    let bigger = Array.make (2 * Array.length t.epochs) e in
    Array.blit t.epochs 0 bigger 0 t.epoch_count;
    t.epochs <- bigger
  end;
  t.epochs.(t.epoch_count) <- e;
  t.epoch_count <- t.epoch_count + 1

let push_sealed_root t r =
  if t.sealed_count >= Array.length t.sealed_roots then begin
    let bigger = Array.make (2 * Array.length t.sealed_roots) r in
    Array.blit t.sealed_roots 0 bigger 0 t.sealed_count;
    t.sealed_roots <- bigger
  end;
  t.sealed_roots.(t.sealed_count) <- r;
  t.sealed_count <- t.sealed_count + 1

(* Rule 1: seal the full tree and seed the next epoch with its root. *)
let roll_epoch t =
  let cur = current t in
  let root = Shrubs.root cur in
  push_sealed_root t root;
  let next = Shrubs.create ~height:t.delta () in
  ignore (Shrubs.append next root);
  push_epoch t next

let append t h =
  if Shrubs.is_full (current t) then roll_epoch t;
  ignore (Shrubs.append (current t) h);
  let jsn = t.size in
  t.size <- t.size + 1;
  jsn

(* One accumulation per batch: the leaves are split at epoch boundaries
   (Rule 1 still rolls full trees) and each in-epoch run goes through
   {!Shrubs.append_many}'s single interior pass.  State after the call is
   identical to [List.iter (append t) hs]. *)
let append_many ?pool t hs =
  let first = t.size in
  (* the empty batch is an explicit no-op: in particular it must not
     roll an epoch even when the current Shrubs is exactly full *)
  if hs = [] then first
  else begin
  let rec split_at n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | h :: rest -> split_at (n - 1) (h :: acc) rest
  in
  let rec go = function
    | [] -> ()
    | hs ->
        if Shrubs.is_full (current t) then roll_epoch t;
        let room =
          match Shrubs.capacity (current t) with
          | Some c -> c - Shrubs.size (current t)
          | None -> List.length hs
        in
        let chunk, rest = split_at (min room (List.length hs)) [] hs in
        ignore (Shrubs.append_many ?pool (current t) chunk);
        t.size <- t.size + List.length chunk;
        go rest
  in
  go hs;
  first
  end

let epoch_of_jsn t jsn =
  if jsn < 0 || jsn >= t.size then invalid_arg "Fam.epoch_of_jsn: out of range";
  let cap = t.epoch_capacity in
  if jsn < cap then (0, jsn)
  else begin
    let j = jsn - cap in
    (1 + (j / (cap - 1)), 1 + (j mod (cap - 1)))
  end

let nth_epoch t e =
  if e < 0 || e >= t.epoch_count then invalid_arg "Fam.nth_epoch: out of range";
  t.epochs.(e)

let commitment t = Shrubs.commitment (current t)
let peaks t = Shrubs.peaks (current t)

let leaf t jsn =
  let e, pos = epoch_of_jsn t jsn in
  Shrubs.leaf (nth_epoch t e) pos

let sealed_epoch_root t e =
  if e < 0 || e >= t.sealed_count then
    invalid_arg "Fam.sealed_epoch_root: not sealed";
  t.sealed_roots.(e)

type proof = {
  jsn : int;
  epoch_paths : Proof.path list;
  peak_index : int;
  peak_set : Proof.node_set;
}

(* Path from leaf [pos] of a *sealed* (full) epoch to its root. *)
let sealed_path t e pos =
  let shrubs = nth_epoch t e in
  let path, peak_index = Forest.prove_to_peak (Shrubs.forest shrubs) pos in
  assert (peak_index = 0);
  path

let prove t jsn =
  let e, pos = epoch_of_jsn t jsn in
  let last = epoch_count t - 1 in
  if e = last then begin
    let { Shrubs.path; peak_index; peak_set } = Shrubs.prove (current t) pos in
    { jsn; epoch_paths = [ path ]; peak_index; peak_set }
  end
  else begin
    let first = sealed_path t e pos in
    (* Chain each sealed epoch root up through the merged leaf (pos 0) of
       the following epoch. *)
    let rec chain k acc =
      if k = last then List.rev acc
      else chain (k + 1) (sealed_path t k 0 :: acc)
    in
    let middles = chain (e + 1) [] in
    let { Shrubs.path = final; peak_index; peak_set } =
      Shrubs.prove (current t) 0
    in
    { jsn; epoch_paths = (first :: middles) @ [ final ]; peak_index; peak_set }
  end

let verify ~commitment ~leaf proof =
  Hash.equal (Proof.node_set_digest proof.peak_set) commitment
  &&
  match List.nth_opt proof.peak_set proof.peak_index with
  | None -> false
  | Some peak ->
      let final = List.fold_left Proof.apply leaf proof.epoch_paths in
      Hash.equal final peak

type anchor = {
  anchor_jsn : int;
  trusted_roots : Hash.t array; (* sealed epoch roots, oldest first *)
  anchor_peaks : Proof.node_set; (* live node-set at anchor time *)
}

let make_anchor t =
  let sealed = epoch_count t - 1 in
  {
    anchor_jsn = t.size;
    trusted_roots = Array.init sealed (fun e -> sealed_epoch_root t e);
    anchor_peaks = peaks t;
  }

let anchor_size a = a.anchor_jsn
let anchor_peaks a = a.anchor_peaks

type anchored_proof =
  | Within_sealed of { epoch : int; path : Proof.path }
  | Beyond_anchor of proof

let prove_anchored t anchor jsn =
  let e, pos = epoch_of_jsn t jsn in
  if e < Array.length anchor.trusted_roots then
    Within_sealed { epoch = e; path = sealed_path t e pos }
  else Beyond_anchor (prove t jsn)

let verify_anchored anchor ~current_commitment ~leaf = function
  | Within_sealed { epoch; path } ->
      epoch < Array.length anchor.trusted_roots
      && Hash.equal (Proof.apply leaf path) anchor.trusted_roots.(epoch)
  | Beyond_anchor proof -> verify ~commitment:current_commitment ~leaf proof

let purge_epochs_before t e =
  let total = epoch_count t in
  let sealed = total - 1 in
  let upto = min e sealed in
  for k = 0 to upto - 1 do
    let shrubs = nth_epoch t k in
    Forest.forget_first_subtree (Shrubs.forest shrubs) ~level:t.delta
  done

let stored_digests t =
  let total = ref 0 in
  for e = 0 to t.epoch_count - 1 do
    total := !total + Shrubs.stored_digests t.epochs.(e)
  done;
  !total

(* Immutable snapshot.  Sealed epochs are append-final (Rule 1 rolls a
   *full* tree and never appends to it again), so their live Shrubs can
   be shared directly; only the live last epoch needs a {!Shrubs.freeze}
   to pin its counts against concurrent appends.  The sealed-roots array
   is shared with a pinned count (writes only land at indices >= the
   pinned count; resizes swap in a new array).  Purge erasures
   ({!purge_epochs_before}) stay visible through snapshots. *)
let freeze t =
  let epochs = Array.copy t.epochs in
  epochs.(t.epoch_count - 1) <- Shrubs.freeze (current t);
  {
    delta = t.delta;
    epoch_capacity = t.epoch_capacity;
    epochs;
    epoch_count = t.epoch_count;
    sealed_roots = t.sealed_roots;
    sealed_count = t.sealed_count;
    size = t.size;
  }

(* --- extension proofs -------------------------------------------------------- *)

type extension_proof =
  | Within_epoch of {
      consistency : Forest.consistency_proof;
      new_peaks : Proof.node_set;
    }
  | Across_epochs of {
      completion : Forest.consistency_proof;
      epoch_root : Hash.t;
      chain : Proof.path list;
      peak_index : int;
      peak_set : Proof.node_set;
    }

(* epoch and in-epoch forest size at a historical journal count *)
let epoch_state_at ~delta ~cap old_size =
  ignore delta;
  if old_size <= cap then (0, old_size)
  else begin
    let j = old_size - 1 - cap in
    (1 + (j / (cap - 1)), 2 + (j mod (cap - 1)))
  end

let prove_extension_unchecked t ~old_size =
  let e, in_epoch = epoch_state_at ~delta:t.delta ~cap:t.epoch_capacity old_size in
  let last = epoch_count t - 1 in
  if e = last then
    Within_epoch
      {
        consistency =
          Forest.prove_consistency (Shrubs.forest (current t)) ~old_size:in_epoch;
        new_peaks = peaks t;
      }
  else begin
    let epoch_forest = Shrubs.forest (nth_epoch t e) in
    let completion = Forest.prove_consistency epoch_forest ~old_size:in_epoch in
    let rec chain_paths k acc =
      if k = last then List.rev acc
      else chain_paths (k + 1) (sealed_path t k 0 :: acc)
    in
    let middles = chain_paths (e + 1) [] in
    let { Shrubs.path = final; peak_index; peak_set } = Shrubs.prove (current t) 0 in
    Across_epochs
      {
        completion;
        epoch_root = sealed_epoch_root t e;
        chain = middles @ [ final ];
        peak_index;
        peak_set;
      }
  end

let prove_extension t ~old_size =
  if old_size <= 0 || old_size > t.size then
    invalid_arg "Fam.prove_extension: bad old_size";
  try prove_extension_unchecked t ~old_size
  with Not_found ->
    invalid_arg "Fam.prove_extension: epoch interior was purged"

let verify_extension ~delta ~old_size ~old_peaks ~new_size ~new_commitment proof =
  if old_size <= 0 || old_size > new_size then false
  else begin
    let cap = 1 lsl delta in
    let e_old, in_old = epoch_state_at ~delta ~cap old_size in
    let e_new, in_new = epoch_state_at ~delta ~cap new_size in
    match proof with
    | Within_epoch { consistency; new_peaks } ->
        e_old = e_new
        && Hash.equal (Proof.node_set_digest new_peaks) new_commitment
        && Forest.verify_consistency ~old_size:in_old ~old_peaks
             ~new_size:in_new ~new_peaks consistency
    | Across_epochs { completion; epoch_root; chain; peak_index; peak_set } ->
        e_old < e_new
        && Hash.equal (Proof.node_set_digest peak_set) new_commitment
        && (match List.nth_opt peak_set peak_index with
           | None -> false
           | Some peak ->
               let final = List.fold_left Proof.apply epoch_root chain in
               Hash.equal final peak)
        && Forest.verify_consistency ~old_size:in_old ~old_peaks ~new_size:cap
             ~new_peaks:[ epoch_root ] completion
        && in_new >= 1
  end
