open Ledger_crypto

type support = ((int * int) * Hash.t) list

type t = {
  size : int;
  first : int;
  last : int;
  support : support;
  peak_set : Proof.node_set;
}

(* Peak decomposition of a forest of [n] leaves: (level, node index,
   starting leaf) triples, leftmost first.  Must mirror Forest's layout. *)
let peak_positions n =
  let rec top_bit b = if 1 lsl (b + 1) > n then b else top_bit (b + 1) in
  let rec go bit start acc =
    if bit < 0 then List.rev acc
    else begin
      let span = 1 lsl bit in
      if n land span <> 0 then
        go (bit - 1) (start + span) ((bit, start / span, start) :: acc)
      else go (bit - 1) start acc
    end
  in
  if n = 0 then [] else go (top_bit 0) 0 []

let prove forest ~first ~last =
  let n = Forest.size forest in
  if first < 0 || last >= n || first > last then
    invalid_arg "Range_proof.prove: bad interval";
  let covers level index =
    let lo = index * (1 lsl level) and hi = (index + 1) * (1 lsl level) in
    not (hi <= first || lo > last)
  in
  let support = ref [] in
  (* Emit the roots of the maximal complete subtrees that contain no
     destination leaf; recurse into subtrees that do. *)
  let rec gen level index =
    if not (covers level index) then
      support := ((level, index), Forest.node forest ~level ~index) :: !support
    else if level > 0 then begin
      gen (level - 1) (2 * index);
      gen (level - 1) ((2 * index) + 1)
    end
  in
  List.iter (fun (l, i, _) -> gen l i) (peak_positions n);
  { size = n; first; last; support = List.rev !support; peak_set = Forest.peaks forest }

let support_size t = List.length t.support

let verify ~known t =
  let leaf_tbl = Hashtbl.create (List.length known) in
  List.iter (fun (i, h) -> Hashtbl.replace leaf_tbl i h) known;
  let support_tbl = Hashtbl.create (List.length t.support) in
  List.iter (fun (pos, h) -> Hashtbl.replace support_tbl pos h) t.support;
  let all_known =
    let rec go i = i > t.last || (Hashtbl.mem leaf_tbl i && go (i + 1)) in
    go t.first
  in
  if not all_known then false
  else begin
    let covers level index =
      let lo = index * (1 lsl level) and hi = (index + 1) * (1 lsl level) in
      not (hi <= t.first || lo > t.last)
    in
    let exception Missing in
    let rec eval level index =
      if not (covers level index) then
        match Hashtbl.find_opt support_tbl (level, index) with
        | Some h -> h
        | None -> raise Missing
      else if level = 0 then
        match Hashtbl.find_opt leaf_tbl index with
        | Some h -> h
        | None -> raise Missing
      else
        Hash.combine (eval (level - 1) (2 * index)) (eval (level - 1) ((2 * index) + 1))
    in
    match
      List.map (fun (l, i, _) -> eval l i) (peak_positions t.size)
    with
    | peaks -> Proof.node_set_equal peaks t.peak_set
    | exception Missing -> false
  end
