open Ledger_crypto
open Ledger_par

(* One digest array per level, allocated when the level receives its
   first node.  Level [l] holds the [size lsr l] complete nodes of height
   [l] in its first slots; the rest is spare capacity.  A purged node is
   overwritten with [forgotten], a private digest compared with [==], so
   no real digest is ever taken for it. *)
type t = { mutable levels : Hash.t array array; mutable size : int; mutable stored : int }

let forgotten = Hash.of_bytes (Bytes.make 32 '\000')
let create () = { levels = [||]; size = 0; stored = 0 }

(* Store node [i] of level [l], the next one that level completes. *)
let set_node t l i h =
  if l = Array.length t.levels then t.levels <- Array.append t.levels [| [| h |] |]
  else begin
    let nodes = t.levels.(l) in
    if i < Array.length nodes then nodes.(i) <- h
    else begin
      let bigger = Array.make (2 * Array.length nodes) forgotten in
      Array.blit nodes 0 bigger 0 i;
      bigger.(i) <- h;
      t.levels.(l) <- bigger
    end
  end;
  t.stored <- t.stored + 1

let get_node t l i =
  if l >= Array.length t.levels || i < 0 || i >= t.size lsr l then
    raise Not_found;
  let h = t.levels.(l).(i) in
  if h == forgotten then raise Not_found;
  h

let append t h =
  let i = t.size in
  set_node t 0 i h;
  t.size <- i + 1;
  (* Cascade: whenever the freshly completed node has an odd index, its
     parent is now complete too. *)
  let rec cascade l idx h =
    if idx land 1 = 1 then begin
      let parent = Hash.combine (get_node t l (idx - 1)) h in
      set_node t (l + 1) (idx / 2) parent;
      cascade (l + 1) (idx / 2) parent
    end
  in
  cascade 0 i h;
  i

(* Batched append: store every leaf first, then complete the interior
   level by level — one linear pass per level instead of one cascade per
   leaf.  The resulting node arrays are byte-identical to [n] sequential
   {!append}s (parents are combined from the same children in the same
   positions); only the order of interior stores differs, and within a
   level that order is ascending in both cases. *)
let append_many ?(pool = Domain_pool.sequential) t hs =
  let first = t.size in
  (* the empty batch is an explicit no-op: no leaf stores, no interior
     completion pass, state untouched *)
  if hs <> [] then begin
    List.iteri (fun k h -> set_node t 0 (first + k) h) hs;
    t.size <- first + List.length hs;
    let rec complete l =
      let have = first lsr (l + 1) and want = t.size lsr (l + 1) in
      if have < want then begin
        let n = want - have in
        (* parents of one level are independent: hash them across the
           pool into index slots, then store them sequentially in
           ascending order — the node arrays end up byte-identical to
           the sequential loop *)
        let parents = Array.make n Hash.zero in
        Domain_pool.parallel_for pool ~label:"merkle_level" ~min_chunk:16 ~n
          (fun k ->
            let j = have + k in
            parents.(k) <-
              Hash.combine (get_node t l (2 * j)) (get_node t l ((2 * j) + 1)));
        Array.iteri (fun k h -> set_node t (l + 1) (have + k) h) parents;
        complete (l + 1)
      end
    in
    complete 0
  end;
  first

let size t = t.size

let leaf t i =
  if i < 0 || i >= t.size then
    invalid_arg (Printf.sprintf "Forest.leaf: %d out of range [0,%d)" i t.size);
  get_node t 0 i

let node t ~level:l ~index = get_node t l index

(* Binary decomposition of [size], most significant subtree first.
   Returns (level, index, leaf_start) triples. *)
let peak_positions t =
  let rec go bit start acc =
    if bit < 0 then List.rev acc
    else begin
      let span = 1 lsl bit in
      if t.size land span <> 0 then
        go (bit - 1) (start + span) ((bit, start / span, start) :: acc)
      else go (bit - 1) start acc
    end
  in
  let rec top_bit b = if 1 lsl (b + 1) > t.size then b else top_bit (b + 1) in
  if t.size = 0 then [] else go (top_bit 0) 0 []

let peaks t =
  List.map (fun (l, i, _) -> get_node t l i) (peak_positions t)

let bag = function
  | [] -> invalid_arg "Forest.bagged_root: empty forest"
  | peaks ->
      let rec fold = function
        | [ last ] -> last
        | p :: rest -> Hash.combine p (fold rest)
        | [] -> assert false
      in
      fold peaks

let bagged_root t = bag (peaks t)

(* Audit path from leaf [i] up to the root of the complete subtree of
   height [h] that contains it. *)
let path_within_complete t i h =
  let rec go l path =
    if l >= h then List.rev path
    else begin
      let idx = i lsr l in
      let sib = idx lxor 1 in
      let digest = get_node t l sib in
      let step =
        if idx land 1 = 1 then { Proof.dir = Proof.Left; digest }
        else { Proof.dir = Proof.Right; digest }
      in
      go (l + 1) (step :: path)
    end
  in
  go 0 []

let find_peak t i =
  let rec go pos = function
    | [] -> invalid_arg "Forest.find_peak: leaf out of range"
    | (l, _, start) :: rest ->
        if i >= start && i < start + (1 lsl l) then (pos, l, start)
        else go (pos + 1) rest
  in
  go 0 (peak_positions t)

let prove_to_peak t i =
  if i < 0 || i >= t.size then invalid_arg "Forest.prove_to_peak: out of range";
  let pos, l, _ = find_peak t i in
  (path_within_complete t i l, pos)

let prove_bagged t i =
  let within, pos = prove_to_peak t i in
  let ps = peaks t in
  (* Combine with the bag of the peaks to the right, then each peak to the
     left, innermost first. *)
  let right = List.filteri (fun j _ -> j > pos) ps in
  let right_step =
    if right = [] then [] else [ { Proof.dir = Proof.Right; digest = bag right } ]
  in
  let left_steps =
    List.filteri (fun j _ -> j < pos) ps
    |> List.rev
    |> List.map (fun digest -> { Proof.dir = Proof.Left; digest })
  in
  within @ right_step @ left_steps

let forget_first_subtree t ~level:l =
  for lev = 0 to min l (Array.length t.levels) - 1 do
    let nodes = t.levels.(lev) in
    for i = 0 to min (1 lsl (l - lev)) (t.size lsr lev) - 1 do
      if nodes.(i) != forgotten then begin
        nodes.(i) <- forgotten;
        t.stored <- t.stored - 1
      end
    done
  done

let stored_digests t = t.stored

(* Immutable snapshot by structural sharing: pin the size (and with it
   every level's count) and share each level's node array.  The live
   forest only writes at indices >= the pinned counts (appends) or swaps
   in a bigger array on growth (the old array survives for the snapshot),
   so reads through the frozen size never observe in-flight growth.
   {!forget_first_subtree} erasures DO show through the arrays a
   snapshot shares, so a snapshot cannot resurrect a purged digest of a
   forest that stopped growing before the purge. *)
let freeze t = { levels = Array.copy t.levels; size = t.size; stored = t.stored }

(* --- consistency proofs ---------------------------------------------------- *)

type consistency_proof = Hash.t list list

(* peak decomposition for an arbitrary historical size *)
let peak_positions_for n =
  let rec top_bit b = if 1 lsl (b + 1) > n then b else top_bit (b + 1) in
  let rec go bit start acc =
    if bit < 0 then List.rev acc
    else begin
      let span = 1 lsl bit in
      if n land span <> 0 then
        go (bit - 1) (start + span) ((bit, start / span) :: acc)
      else go (bit - 1) start acc
    end
  in
  if n = 0 then [] else go (top_bit 0) 0 []

(* the level of the current peak containing node (l, i) *)
let containing_peak_level new_positions l i =
  let rec find = function
    | [] -> None
    | (pl, pi) :: rest ->
        if pl >= l && i lsr (pl - l) = pi then Some pl else find rest
  in
  find new_positions

let prove_consistency t ~old_size =
  if old_size <= 0 || old_size > t.size then
    invalid_arg "Forest.prove_consistency: bad old_size";
  let new_positions = peak_positions_for t.size in
  List.map
    (fun (l, i) ->
      match containing_peak_level new_positions l i with
      | None -> invalid_arg "Forest.prove_consistency: uncovered old peak"
      | Some top ->
          (* siblings from (l, i) up to (top, i >> (top - l)) *)
          List.init (top - l) (fun k ->
              let level = l + k in
              let idx = i lsr k in
              get_node t level (idx lxor 1)))
    (peak_positions_for old_size)

let verify_consistency ~old_size ~old_peaks ~new_size ~new_peaks proof =
  if old_size <= 0 || old_size > new_size then false
  else begin
    let old_positions = peak_positions_for old_size in
    let new_positions = peak_positions_for new_size in
    List.length old_positions = List.length old_peaks
    && List.length new_positions = List.length new_peaks
    && List.length proof = List.length old_positions
    &&
    let check (l, i) old_digest chain =
      match containing_peak_level new_positions l i with
      | None -> false
      | Some top ->
          List.length chain = top - l
          &&
          let climbed =
            List.fold_left
              (fun (digest, k) sibling ->
                let idx = i lsr k in
                let parent =
                  if idx land 1 = 1 then Hash.combine sibling digest
                  else Hash.combine digest sibling
                in
                (parent, k + 1))
              (old_digest, 0) chain
            |> fst
          in
          (* compare against the current peak at that position *)
          let rec nth_peak positions peaks =
            match (positions, peaks) with
            | (pl, pi) :: _, peak :: _ when pl = top && i lsr (top - l) = pi ->
                Some peak
            | _ :: ps, _ :: ks -> nth_peak ps ks
            | [], _ | _, [] -> None
          in
          (match nth_peak new_positions new_peaks with
          | Some peak -> Hash.equal climbed peak
          | None -> false)
    in
    let rec all3 ps ds cs =
      match (ps, ds, cs) with
      | [], [], [] -> true
      | p :: ps, d :: ds, c :: cs -> check p d c && all3 ps ds cs
      | _ -> false
    in
    all3 old_positions old_peaks proof
  end
