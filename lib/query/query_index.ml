open Ledger_crypto
open Ledger_mpt

type entry = { e_jsn : int; e_tx : Hash.t; e_chain : Hash.t }

module SMap = Map.Make (String)

(* A clue's entries: the first [fn] slots of [fa].  A published cell is
   never written again: {!add} writes slot [fn] (or a grown copy of [fa])
   and publishes a successor cell.  The one writer only writes past the
   latest count, which is at or past every count a published cell pins,
   so a {!freeze} shares [cells] and its arrays as they are. *)
type fcell = { fa : entry array; fn : int }

type t = {
  trie : Mpt.t;
  mutable cells : fcell SMap.t;  (* the only per-clue table *)
  mutable entries : int;
}

let create () = { trie = Mpt.create (); cells = SMap.empty; entries = 0 }
let trie t = t.trie
let root t = Mpt.root_hash t.trie
let cardinal t = Mpt.cardinal t.trie
let entries t = t.entries

(* --- key and commitment formats ----------------------------------------- *)

let key_of_clue clue = Nibble.of_string clue

let clue_of_key key =
  let n = String.length key in
  if n land 1 <> 0 || not (Nibble.is_path key) then None
  else
    Some
      (String.init (n / 2) (fun i ->
           Char.chr ((Nibble.get key (2 * i) lsl 4) lor Nibble.get key ((2 * i) + 1))))

let chain_seed clue = Hash.scatter clue

let chain_step prev jsn tx =
  Wire.encode_digest (fun w ->
      Wire.w_hash w prev;
      Wire.w_int w jsn;
      Wire.w_hash w tx)

let committed_value ~count ~chain =
  Wire.encode (fun w ->
      Wire.w_int w count;
      Wire.w_hash w chain)

let decode_value b =
  Wire.decode b (fun r ->
      let count = Wire.r_int r in
      if count < 0 then raise Wire.Corrupt;
      let chain = Wire.r_hash r in
      (count, chain))

(* --- maintenance --------------------------------------------------------- *)

(* The successor of [c] with [e] in slot [fn]. *)
let cell_push c e =
  let cap = Array.length c.fa in
  let fa =
    if c.fn < cap then c.fa
    else begin
      let bigger = Array.make (if cap = 0 then 4 else 2 * cap) e in
      Array.blit c.fa 0 bigger 0 c.fn;
      bigger
    end
  in
  fa.(c.fn) <- e;
  { fa; fn = c.fn + 1 }

let empty_cell = { fa = [||]; fn = 0 }

let add t ~clue ~jsn ~tx =
  if String.length clue = 0 then ()
  else begin
    let c =
      match SMap.find_opt clue t.cells with Some c -> c | None -> empty_cell
    in
    if c.fn > 0 && c.fa.(c.fn - 1).e_jsn = jsn then
      (* a journal listing the same clue twice contributes one entry *)
      ()
    else begin
      if c.fn > 0 && c.fa.(c.fn - 1).e_jsn > jsn then
        invalid_arg "Query_index.add: jsns must be strictly increasing per clue";
      let prev = if c.fn = 0 then chain_seed clue else c.fa.(c.fn - 1).e_chain in
      let chain = chain_step prev jsn tx in
      let c = cell_push c { e_jsn = jsn; e_tx = tx; e_chain = chain } in
      t.entries <- t.entries + 1;
      t.cells <- SMap.add clue c t.cells;
      Mpt.insert t.trie ~key:(key_of_clue clue)
        (committed_value ~count:c.fn ~chain)
    end
  end

let freeze t = { trie = Mpt.freeze t.trie; cells = t.cells; entries = t.entries }

(* --- per-clue reads ------------------------------------------------------ *)

let clue_count t ~clue =
  match SMap.find_opt clue t.cells with Some c -> c.fn | None -> 0

let slice t ~clue ~offset ~limit =
  if offset < 0 || limit < 0 then invalid_arg "Query_index.slice";
  match SMap.find_opt clue t.cells with
  | None -> []
  | Some c ->
      let n = min limit (max 0 (c.fn - offset)) in
      List.init n (fun i ->
          let e = c.fa.(offset + i) in
          (e.e_jsn, e.e_tx))

(* Chain digest after the first [n] entries (the seed for [n = 0]). *)
let chain_at t ~clue n =
  if n = 0 then chain_seed clue
  else
    match SMap.find_opt clue t.cells with
    | Some c when n <= c.fn -> c.fa.(n - 1).e_chain
    | _ -> invalid_arg "Query_index.chain_at"

(* Index of the first entry with jsn >= [jsn]; [count] when none. *)
let first_at_or_after t ~clue jsn =
  match SMap.find_opt clue t.cells with
  | None -> 0
  | Some c ->
      let lo = ref 0 and hi = ref c.fn in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if c.fa.(mid).e_jsn < jsn then lo := mid + 1 else hi := mid
      done;
      !lo

(* --- point proofs -------------------------------------------------------- *)

let prove_clue t ~clue = Mpt.prove t.trie ~key:(key_of_clue clue)
