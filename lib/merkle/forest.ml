open Ledger_crypto
open Ledger_par

(* Per-level dynamic arrays of complete-node digests.  [None] marks a
   node forgotten after a purge. *)
type level = { mutable nodes : Hash.t option array; mutable count : int }

type t = { mutable levels : level array; mutable size : int; mutable stored : int }

let new_level () = { nodes = Array.make 8 None; count = 0 }

let create () = { levels = [| new_level () |]; size = 0; stored = 0 }

let level t l =
  while l >= Array.length t.levels do
    let bigger = Array.make (max 4 (2 * Array.length t.levels)) (new_level ()) in
    Array.blit t.levels 0 bigger 0 (Array.length t.levels);
    for i = Array.length t.levels to Array.length bigger - 1 do
      bigger.(i) <- new_level ()
    done;
    t.levels <- bigger
  done;
  t.levels.(l)

let push_node t l h =
  let lv = level t l in
  if lv.count >= Array.length lv.nodes then begin
    let bigger = Array.make (2 * Array.length lv.nodes) None in
    Array.blit lv.nodes 0 bigger 0 lv.count;
    lv.nodes <- bigger
  end;
  lv.nodes.(lv.count) <- Some h;
  lv.count <- lv.count + 1;
  t.stored <- t.stored + 1

let get_node t l i =
  if l >= Array.length t.levels then raise Not_found;
  let lv = t.levels.(l) in
  if i < 0 || i >= lv.count then raise Not_found;
  match lv.nodes.(i) with Some h -> h | None -> raise Not_found

let append t h =
  let i = t.size in
  push_node t 0 h;
  t.size <- t.size + 1;
  (* Cascade: whenever the freshly completed node has an odd index, its
     parent is now complete too. *)
  let rec cascade l idx h =
    if idx land 1 = 1 then begin
      let left = get_node t l (idx - 1) in
      let parent = Hash.combine left h in
      push_node t (l + 1) parent;
      cascade (l + 1) (idx / 2) parent
    end
  in
  cascade 0 i h;
  i

(* Batched append: push every leaf first, then complete the interior
   level by level — one linear pass per level instead of one cascade per
   leaf.  The resulting node arrays are byte-identical to [n] sequential
   {!append}s (parents are combined from the same children in the same
   positions); only the order of interior pushes differs, and within a
   level that order is ascending in both cases. *)
let append_many ?(pool = Domain_pool.sequential) t hs =
  let first = t.size in
  (* the empty batch is an explicit no-op: no leaf pushes, no interior
     completion pass, state untouched *)
  if hs <> [] then begin
    List.iter
      (fun h ->
        push_node t 0 h;
        t.size <- t.size + 1)
      hs;
    let rec complete l =
      let lv = level t l in
      let want = lv.count / 2 in
      let have = (level t (l + 1)).count in
      if have < want then begin
        let n = want - have in
        (* parents of one level are independent: hash them across the
           pool into index slots, then push sequentially in ascending
           order — the node arrays end up byte-identical to the
           sequential loop *)
        let parents = Array.make n Hash.zero in
        Domain_pool.parallel_for pool ~label:"merkle_level" ~min_chunk:16 ~n
          (fun k ->
            let j = have + k in
            parents.(k) <-
              Hash.combine (get_node t l (2 * j)) (get_node t l ((2 * j) + 1)));
        Array.iter (push_node t (l + 1)) parents;
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
  let n = List.length ps in
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
  ignore n;
  within @ right_step @ left_steps

let forget_subtree t ~level:l ~index =
  for lev = 0 to l - 1 do
    if lev < Array.length t.levels then begin
      let lv = t.levels.(lev) in
      let lo = index * (1 lsl (l - lev)) in
      let hi = min lv.count ((index + 1) * (1 lsl (l - lev))) in
      for i = lo to hi - 1 do
        if lv.nodes.(i) <> None then begin
          lv.nodes.(i) <- None;
          t.stored <- t.stored - 1
        end
      done
    end
  done

let stored_digests t = t.stored

(* Immutable snapshot by structural sharing: pin every level's count and
   share its node array.  The live forest only writes at indices >= the
   pinned count (appends) or swaps in a bigger array on resize (the old
   array survives for the snapshot), so reads through the frozen counts
   never observe in-flight growth.  {!forget_subtree} erasures DO show
   through (shared arrays) — snapshots deliberately cannot resurrect
   purged digests. *)
let freeze t =
  {
    levels =
      Array.map (fun lv -> { nodes = lv.nodes; count = lv.count }) t.levels;
    size = t.size;
    stored = t.stored;
  }

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
