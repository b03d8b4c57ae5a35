open Ledger_crypto
open Ledger_mpt

type entry = { e_jsn : int; e_tx : Hash.t; e_chain : Hash.t }
type cell = { mutable count : int; mutable arr : entry array }

module SMap = Map.Make (String)

(* Frozen view of a cell: the entry array is shared with the live cell
   (the writer appends only at indices >= [fn]; capacity growth swaps in
   a fresh array), the count is pinned.  Kept in a persistent map that is
   republished on every {!add}, so {!freeze} is O(1) and reads never
   touch the writer's hashtable. *)
type fcell = { fa : entry array; fn : int }

type t = {
  trie : Mpt.t;
  tbl : (string, cell) Hashtbl.t;  (* writer-side mutable cells *)
  mutable fcells : fcell SMap.t;  (* read-side frozen mirror *)
  mutable entries : int;
}

let create () =
  { trie = Mpt.create (); tbl = Hashtbl.create 64; fcells = SMap.empty;
    entries = 0 }
let trie t = t.trie
let root t = Mpt.root_hash t.trie
let cardinal t = Mpt.cardinal t.trie
let entries t = t.entries

(* --- key and commitment formats ----------------------------------------- *)

let key_of_clue clue = Nibble.of_string clue

let clue_of_key key =
  let n = Array.length key in
  if n mod 2 <> 0 then None
  else
    let ok = ref true in
    let b = Bytes.create (n / 2) in
    for i = 0 to (n / 2) - 1 do
      let hi = key.(2 * i) and lo = key.((2 * i) + 1) in
      if hi < 0 || hi > 15 || lo < 0 || lo > 15 then ok := false
      else Bytes.set b i (Char.chr ((hi lsl 4) lor lo))
    done;
    if !ok then Some (Bytes.to_string b) else None

let chain_seed clue = Hash.scatter clue

let chain_step prev jsn tx =
  let w = Wire.writer ~initial:80 () in
  Wire.w_hash w prev;
  Wire.w_int w jsn;
  Wire.w_hash w tx;
  Hash.digest_bytes (Wire.contents w)

let committed_value ~count ~chain =
  let w = Wire.writer ~initial:48 () in
  Wire.w_int w count;
  Wire.w_hash w chain;
  Wire.contents w

let decode_value b =
  Wire.decode b (fun r ->
      let count = Wire.r_int r in
      if count < 0 then raise Wire.Corrupt;
      let chain = Wire.r_hash r in
      (count, chain))

(* --- maintenance --------------------------------------------------------- *)

let cell_push cell e =
  let cap = Array.length cell.arr in
  if cell.count = cap then begin
    let bigger =
      Array.make (if cap = 0 then 4 else 2 * cap)
        { e_jsn = 0; e_tx = Hash.zero; e_chain = Hash.zero }
    in
    Array.blit cell.arr 0 bigger 0 cell.count;
    cell.arr <- bigger
  end;
  cell.arr.(cell.count) <- e;
  cell.count <- cell.count + 1

let add t ~clue ~jsn ~tx =
  if String.length clue = 0 then ()
  else begin
    let cell =
      match Hashtbl.find_opt t.tbl clue with
      | Some c -> c
      | None ->
          let c = { count = 0; arr = [||] } in
          Hashtbl.replace t.tbl clue c;
          c
    in
    let prev =
      if cell.count = 0 then chain_seed clue
      else cell.arr.(cell.count - 1).e_chain
    in
    if cell.count > 0 && cell.arr.(cell.count - 1).e_jsn = jsn then
      (* a journal listing the same clue twice contributes one entry *)
      ()
    else begin
      if cell.count > 0 && cell.arr.(cell.count - 1).e_jsn > jsn then
        invalid_arg "Query_index.add: jsns must be strictly increasing per clue";
      cell_push cell { e_jsn = jsn; e_tx = tx; e_chain = chain_step prev jsn tx };
      t.entries <- t.entries + 1;
      t.fcells <- SMap.add clue { fa = cell.arr; fn = cell.count } t.fcells;
      Mpt.insert t.trie ~key:(key_of_clue clue)
        (committed_value ~count:cell.count
           ~chain:cell.arr.(cell.count - 1).e_chain)
    end
  end

let freeze t =
  { trie = Mpt.freeze t.trie; tbl = Hashtbl.create 1; fcells = t.fcells;
    entries = t.entries }

(* --- per-clue reads ------------------------------------------------------ *)

(* All reads go through the frozen mirror so they behave identically on
   the live index and on a {!freeze} snapshot read from another domain. *)

let clue_count t ~clue =
  match SMap.find_opt clue t.fcells with Some c -> c.fn | None -> 0

let slice t ~clue ~offset ~limit =
  if offset < 0 || limit < 0 then invalid_arg "Query_index.slice";
  match SMap.find_opt clue t.fcells with
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
    match SMap.find_opt clue t.fcells with
    | Some c when n <= c.fn -> c.fa.(n - 1).e_chain
    | _ -> invalid_arg "Query_index.chain_at"

(* Index of the first entry with jsn >= [jsn]; [count] when none. *)
let first_at_or_after t ~clue jsn =
  match SMap.find_opt clue t.fcells with
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
