(* Indexable randomised skip list over strictly increasing integers.

   Each node stores, per level, its forward pointer and the number of
   level-0 links that pointer spans ("width"), which gives O(log n)
   positional access.  Because journals arrive in jsn order, insertion is
   always at the tail: we keep a finger (node and rank) per level, making
   appends O(1) amortised — the "write-optimized" property of cSL. *)

let max_level = 24

(* Forward links end at [nil], one shared sentinel, rather than at a
   [node option]: a link is one word, not a pointer to a 2-word box.
   Only the head's arrays are ever replaced (when they grow), so only
   they need the [mutable]. *)
type node = {
  key : int;
  mutable forward : node array;
  mutable width : int array;
}

let nil = { key = max_int; forward = [||]; width = [||] }

type t = {
  head : node;
  mutable level : int; (* highest level in use, >= 1 *)
  mutable length : int;
  mutable tails : node array; (* rightmost node per level *)
  mutable tail_ranks : int array; (* 1-based rank of each tail (0 = head) *)
  mutable rng_state : int64;
}

let make_node key levels =
  { key; forward = Array.make levels nil; width = Array.make levels 0 }

(* The head and the fingers start one level high and double, up to
   [max_level], when a drawn level outgrows them: the ledger keeps one
   list per clue and most clues hold few jsns, so a list holds only the
   levels its draws reached. *)
let create ?(seed = 0x5EED) () =
  let head = make_node min_int 1 in
  {
    head;
    level = 1;
    length = 0;
    tails = [| head |];
    tail_ranks = [| 0 |];
    rng_state = Int64.of_int ((seed * 2) + 1);
  }

let grow t levels =
  let cap = Array.length t.tails in
  if levels > cap then begin
    let cap' =
      let rec double c = if c >= levels then c else double (2 * c) in
      min max_level (double cap)
    in
    let extend a fill =
      Array.init cap' (fun i -> if i < cap then a.(i) else fill)
    in
    t.head.forward <- extend t.head.forward nil;
    t.head.width <- extend t.head.width 0;
    t.tails <- extend t.tails t.head;
    t.tail_ranks <- extend t.tail_ranks 0
  end

(* splitmix64 step for level draws *)
let next_bits t =
  t.rng_state <- Int64.add t.rng_state 0x9E3779B97F4A7C15L;
  let z = t.rng_state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let random_level t =
  let bits = next_bits t in
  let rec count lvl =
    if lvl >= max_level then max_level
    else if Int64.logand (Int64.shift_right_logical bits (lvl - 1)) 1L = 1L then
      count (lvl + 1)
    else lvl
  in
  count 1

let length t = t.length
let level_count t = t.level
let max_elt t = if t.length = 0 then None else Some t.tails.(0).key

let min_elt t = if t.length = 0 then None else Some t.head.forward.(0).key

let append t key =
  (match max_elt t with
  | Some m when key <= m ->
      invalid_arg "Clue_skiplist.append: keys must be strictly increasing"
  | Some _ | None -> ());
  let node_level = random_level t in
  grow t node_level;
  if node_level > t.level then t.level <- node_level;
  let node = make_node key node_level in
  let rank = t.length + 1 in
  for lvl = 0 to node_level - 1 do
    let tail = t.tails.(lvl) in
    tail.forward.(lvl) <- node;
    tail.width.(lvl) <- rank - t.tail_ranks.(lvl);
    t.tails.(lvl) <- node;
    t.tail_ranks.(lvl) <- rank
  done;
  t.length <- t.length + 1

(* Walk down the levels, advancing while the forward key stays <= [key];
   returns the rightmost node with key <= [key] plus the visit count. *)
let descend t key =
  let node = ref t.head and steps = ref 0 in
  for lvl = t.level - 1 downto 0 do
    let continue = ref true in
    while !continue do
      incr steps;
      let next = !node.forward.(lvl) in
      if next != nil && next.key <= key then node := next
      else continue := false
    done
  done;
  (!node, !steps)

let mem t key = (fst (descend t key)).key = key
let search_steps t key = snd (descend t key)

let nth t k =
  if k < 0 || k >= t.length then None
  else begin
    let target = k + 1 in
    let node = ref t.head and pos = ref 0 in
    for lvl = t.level - 1 downto 0 do
      let continue = ref true in
      while !continue do
        let next = !node.forward.(lvl) in
        if next != nil && !pos + !node.width.(lvl) <= target then begin
          pos := !pos + !node.width.(lvl);
          node := next
        end
        else continue := false
      done
    done;
    if !pos = target then Some !node.key else None
  end

let to_list t =
  let rec walk acc n =
    if n == nil then List.rev acc else walk (n.key :: acc) n.forward.(0)
  in
  walk [] t.head.forward.(0)

let range t ~lo ~hi =
  if lo > hi then []
  else begin
    (* rightmost node with key <= lo - 1, then walk level 0 *)
    let start, _ = descend t (lo - 1) in
    let rec walk acc n =
      if n != nil && n.key <= hi then walk (n.key :: acc) n.forward.(0)
      else List.rev acc
    in
    walk [] start.forward.(0)
  end
