open Ledger_crypto
module Wire = Ledger_crypto.Wire

type node =
  | Leaf of leaf
  | Ext of ext
  | Branch of branch

and leaf = { mutable lpath : int array; mutable lvalue : bytes; mutable lhash : Hash.t option }
and ext = { mutable epath : int array; mutable echild : node; mutable ehash : Hash.t option }

and branch = {
  children : node option array;
  mutable bvalue : bytes option;
  mutable bhash : Hash.t option;
}

type t = { mutable root : node option; mutable cardinal : int }

let create () = { root = None; cardinal = 0 }
let cardinal t = t.cardinal

(* --- hashing ----------------------------------------------------------- *)

(* Each node's fields stream straight into one SHA-256 context:
   leaf  = H('L' || hex path || 0x00 || value),
   ext   = H('E' || hex path || 0x00 || child),
   branch = H('B' || child_0 || ... || child_15 [|| 'V' || value]). *)
let hash_leaf_fields path value =
  let ctx = Sha256.init () in
  Sha256.update_char ctx 'L';
  Nibble.absorb ctx path;
  Sha256.update_char ctx '\000';
  Sha256.update ctx value;
  Hash.finalize ctx

let hash_ext_fields path child_hash =
  let ctx = Sha256.init () in
  Sha256.update_char ctx 'E';
  Nibble.absorb ctx path;
  Sha256.update_char ctx '\000';
  Hash.absorb ctx child_hash;
  Hash.finalize ctx

let hash_branch_fields child_hashes value =
  let ctx = Sha256.init () in
  Sha256.update_char ctx 'B';
  for i = 0 to Array.length child_hashes - 1 do
    Hash.absorb ctx child_hashes.(i)
  done;
  (match value with
  | Some v ->
      Sha256.update_char ctx 'V';
      Sha256.update ctx v
  | None -> ());
  Hash.finalize ctx

let rec node_hash = function
  | Leaf l -> (
      match l.lhash with
      | Some h -> h
      | None ->
          let h = hash_leaf_fields l.lpath l.lvalue in
          l.lhash <- Some h;
          h)
  | Ext e -> (
      match e.ehash with
      | Some h -> h
      | None ->
          let h = hash_ext_fields e.epath (node_hash e.echild) in
          e.ehash <- Some h;
          h)
  | Branch b -> (
      match b.bhash with
      | Some h -> h
      | None ->
          let child_hashes =
            Array.map
              (function Some n -> node_hash n | None -> Hash.zero)
              b.children
          in
          let h = hash_branch_fields child_hashes b.bvalue in
          b.bhash <- Some h;
          h)

let root_hash t =
  match t.root with None -> Hash.zero | Some n -> node_hash n

(* --- insertion --------------------------------------------------------- *)

let mk_leaf path value = Leaf { lpath = path; lvalue = value; lhash = None }
let mk_branch () = { children = Array.make 16 None; bvalue = None; bhash = None }
let mk_ext path child = Ext { epath = path; echild = child; ehash = None }

(* Attach a remainder (possibly empty) of a key into a branch. *)
let attach_to_branch branch path value =
  if Array.length path = 0 then branch.bvalue <- Some value
  else
    branch.children.(path.(0)) <-
      Some (mk_leaf (Nibble.sub path 1 (Array.length path - 1)) value)

(* Insertion is path-copying: every node along the descent is replaced
   by a fresh record rather than mutated, so any previously captured
   root ({!freeze}) keeps denoting the exact pre-insert trie.  Off-path
   subtrees are shared structurally between versions. *)
let rec insert_node t node key ki value =
  match node with
  | Leaf l ->
      let rest_new = Nibble.sub key ki (Array.length key - ki) in
      let cp = Nibble.common_prefix_length l.lpath 0 rest_new 0 in
      if cp = Array.length l.lpath && cp = Array.length rest_new then
        (* same key: fresh leaf, snapshots keep the old value *)
        Leaf { lpath = l.lpath; lvalue = value; lhash = None }
      else begin
        let branch = mk_branch () in
        let old_rest = Nibble.sub l.lpath cp (Array.length l.lpath - cp) in
        let new_rest = Nibble.sub rest_new cp (Array.length rest_new - cp) in
        attach_to_branch branch old_rest l.lvalue;
        attach_to_branch branch new_rest value;
        t.cardinal <- t.cardinal + 1;
        let bnode = Branch branch in
        if cp = 0 then bnode else mk_ext (Nibble.sub rest_new 0 cp) bnode
      end
  | Ext e ->
      let cp = Nibble.common_prefix_length e.epath 0 key ki in
      if cp = Array.length e.epath then
        Ext
          {
            epath = e.epath;
            echild = insert_node t e.echild key (ki + cp) value;
            ehash = None;
          }
      else begin
        (* split the extension *)
        let branch = mk_branch () in
        let pivot = e.epath.(cp) in
        let tail_len = Array.length e.epath - cp - 1 in
        let inner =
          if tail_len = 0 then e.echild
          else mk_ext (Nibble.sub e.epath (cp + 1) tail_len) e.echild
        in
        branch.children.(pivot) <- Some inner;
        let new_rest = Nibble.sub key (ki + cp) (Array.length key - ki - cp) in
        attach_to_branch branch new_rest value;
        t.cardinal <- t.cardinal + 1;
        let bnode = Branch branch in
        if cp = 0 then bnode else mk_ext (Nibble.sub e.epath 0 cp) bnode
      end
  | Branch b ->
      if ki = Array.length key then begin
        if b.bvalue = None then t.cardinal <- t.cardinal + 1;
        Branch
          { children = Array.copy b.children; bvalue = Some value; bhash = None }
      end
      else begin
        let c = key.(ki) in
        let children = Array.copy b.children in
        (match b.children.(c) with
        | None ->
            children.(c) <-
              Some (mk_leaf (Nibble.sub key (ki + 1) (Array.length key - ki - 1)) value);
            t.cardinal <- t.cardinal + 1
        | Some child -> children.(c) <- Some (insert_node t child key (ki + 1) value));
        Branch { children; bvalue = b.bvalue; bhash = None }
      end

let insert t ~key value =
  if Array.length key = 0 then invalid_arg "Mpt.insert: empty key";
  match t.root with
  | None ->
      t.root <- Some (mk_leaf (Array.copy key) value);
      t.cardinal <- 1
  | Some root -> t.root <- Some (insert_node t root key 0 value)

let insert_string t ~key value = insert t ~key:(Nibble.of_hash (Hash.scatter key)) value

(* Immutable snapshot.  Forcing the root hash memoizes every reachable
   node's digest, so a reader walking the frozen version never writes a
   memo field — the snapshot is safe to share across domains while the
   writer keeps inserting (inserts path-copy, they never touch nodes a
   frozen root can reach). *)
let freeze t =
  ignore (root_hash t);
  { root = t.root; cardinal = t.cardinal }

(* --- lookup ------------------------------------------------------------ *)

let rec find_node node key ki depth =
  match node with
  | Leaf l ->
      let rest = Array.length key - ki in
      if rest = Array.length l.lpath
         && Nibble.common_prefix_length l.lpath 0 key ki = rest
      then (Some l.lvalue, depth)
      else (None, depth)
  | Ext e ->
      let cp = Nibble.common_prefix_length e.epath 0 key ki in
      if cp = Array.length e.epath then find_node e.echild key (ki + cp) (depth + 1)
      else (None, depth)
  | Branch b ->
      if ki = Array.length key then (b.bvalue, depth)
      else begin
        match b.children.(key.(ki)) with
        | None -> (None, depth)
        | Some child -> find_node child key (ki + 1) (depth + 1)
      end

let find t ~key =
  match t.root with None -> None | Some n -> fst (find_node n key 0 1)

let find_string t ~key = find t ~key:(Nibble.of_hash (Hash.scatter key))

let lookup_depth t ~key =
  match t.root with
  | None -> 0
  | Some n -> (
      match find_node n key 0 1 with Some _, d -> d | None, _ -> 0)

(* --- proofs ------------------------------------------------------------ *)

type proof_node =
  | Leaf_node of { path : int array; value : bytes }
  | Extension_node of { path : int array; child : Hash.t }
  | Branch_node of { children : Hash.t array; value : bytes option; descend : int }

type proof = proof_node list

let branch_child_hashes b =
  Array.map (function Some n -> node_hash n | None -> Hash.zero) b.children

let prove t ~key =
  let rec walk node ki acc =
    match node with
    | Leaf l ->
        let rest = Array.length key - ki in
        if rest = Array.length l.lpath
           && Nibble.common_prefix_length l.lpath 0 key ki = rest
        then Some (List.rev (Leaf_node { path = Array.copy l.lpath; value = l.lvalue } :: acc))
        else None
    | Ext e ->
        let cp = Nibble.common_prefix_length e.epath 0 key ki in
        if cp = Array.length e.epath then
          walk e.echild (ki + cp)
            (Extension_node { path = Array.copy e.epath; child = node_hash e.echild } :: acc)
        else None
    | Branch b ->
        if ki = Array.length key then
          match b.bvalue with
          | Some v ->
              Some
                (List.rev
                   (Branch_node
                      { children = branch_child_hashes b; value = Some v; descend = -1 }
                   :: acc))
          | None -> None
        else begin
          match b.children.(key.(ki)) with
          | None -> None
          | Some child ->
              walk child (ki + 1)
                (Branch_node
                   { children = branch_child_hashes b; value = b.bvalue; descend = key.(ki) }
                :: acc)
        end
  in
  match t.root with None -> None | Some root -> walk root 0 []

let prove_string t ~key = prove t ~key:(Nibble.of_hash (Hash.scatter key))

let proof_node_hash = function
  | Leaf_node { path; value } -> hash_leaf_fields path value
  | Extension_node { path; child } -> hash_ext_fields path child
  | Branch_node { children; value; descend = _ } -> hash_branch_fields children value

let verify_proof ~root ~key ~value proof =
  let rec walk expected ki = function
    | [] -> false
    | node :: rest -> (
        if not (Hash.equal (proof_node_hash node) expected) then false
        else
          match node with
          | Leaf_node { path; value = v } ->
              rest = []
              && Array.length key - ki = Array.length path
              && Nibble.common_prefix_length path 0 key ki = Array.length path
              && Bytes.equal v value
          | Extension_node { path; child } ->
              Nibble.common_prefix_length path 0 key ki = Array.length path
              && walk child (ki + Array.length path) rest
          | Branch_node { children; value = bv; descend } ->
              if descend = -1 then
                rest = [] && ki = Array.length key
                && (match bv with Some v -> Bytes.equal v value | None -> false)
              else
                ki < Array.length key
                && key.(ki) = descend
                && descend >= 0 && descend < 16
                && walk children.(descend) (ki + 1) rest)
  in
  walk root 0 proof

let verify_proof_string ~root ~key ~value proof =
  verify_proof ~root ~key:(Nibble.of_hash (Hash.scatter key)) ~value proof

(* --- wire codec ---------------------------------------------------------- *)

let w_nibbles w path =
  Wire.w_int w (Array.length path);
  Array.iter (fun n -> Wire.w_u8 w n) path

let r_nibbles r =
  let n = Wire.r_int r in
  if n < 0 || n > 4096 then raise Wire.Corrupt;
  Array.init n (fun _ ->
      let v = Wire.r_u8 r in
      if v > 15 then raise Wire.Corrupt;
      v)

let w_proof_node w = function
  | Leaf_node { path; value } ->
      Wire.w_u8 w 0;
      w_nibbles w path;
      Wire.w_bytes w value
  | Extension_node { path; child } ->
      Wire.w_u8 w 1;
      w_nibbles w path;
      Wire.w_hash w child
  | Branch_node { children; value; descend } ->
      Wire.w_u8 w 2;
      Array.iter (Wire.w_hash w) children;
      Wire.w_option w (Wire.w_bytes w) value;
      Wire.w_int w descend

let r_proof_node r =
  match Wire.r_u8 r with
  | 0 ->
      let path = r_nibbles r in
      let value = Wire.r_bytes r in
      Leaf_node { path; value }
  | 1 ->
      let path = r_nibbles r in
      let child = Wire.r_hash r in
      Extension_node { path; child }
  | 2 ->
      let children = Array.init 16 (fun _ -> Wire.r_hash r) in
      let value = Wire.r_option r (fun () -> Wire.r_bytes r) in
      let descend = Wire.r_int r in
      Branch_node { children; value; descend }
  | _ -> raise Wire.Corrupt

let w_proof w proof = Wire.w_list w (w_proof_node w) proof
let r_proof r = Wire.r_list ~max:256 r (fun () -> r_proof_node r)

(* --- ordered keys ------------------------------------------------------- *)

(* Keys sort in prefix-first lexicographic order: a proper prefix sorts
   before every extension of itself, and a branch value sorts before the
   branch's children.  This matches a depth-first, value-first, child-
   ascending traversal of the trie, which is what every ordered operation
   below performs. *)

let compare_keys a b =
  let la = Array.length a and lb = Array.length b in
  let n = if la < lb then la else lb in
  let rec go i =
    if i = n then compare la lb
    else
      let c = compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let is_strict_prefix p k =
  Array.length p < Array.length k
  && Nibble.common_prefix_length p 0 k 0 = Array.length p

let key_in_range k ~lo ~hi =
  compare_keys lo k <= 0
  && (match hi with None -> true | Some h -> compare_keys k h < 0)

(* Every key under prefix [q] falls outside [lo, hi): either the whole
   subtree sorts below [lo] (q < lo and q is not a prefix of lo), or the
   whole subtree sorts at or above [hi] (q >= hi, since extensions of q
   sort after q). *)
let subtree_disjoint q ~lo ~hi =
  (compare_keys q lo < 0 && not (is_strict_prefix q lo))
  || (match hi with None -> false | Some h -> compare_keys q h >= 0)

let rec iter_in_range node q ~lo ~hi f =
  match node with
  | Leaf l ->
      let k = Array.append q l.lpath in
      if key_in_range k ~lo ~hi then f k l.lvalue
  | Ext e ->
      let q' = Array.append q e.epath in
      if not (subtree_disjoint q' ~lo ~hi) then iter_in_range e.echild q' ~lo ~hi f
  | Branch b ->
      (match b.bvalue with
      | Some v when key_in_range q ~lo ~hi -> f q v
      | _ -> ());
      Array.iteri
        (fun i child ->
          match child with
          | None -> ()
          | Some n ->
              let q' = Array.append q [| i |] in
              if not (subtree_disjoint q' ~lo ~hi) then iter_in_range n q' ~lo ~hi f)
        b.children

let iter_range t ~lo ?hi f =
  match t.root with None -> () | Some n -> iter_in_range n [||] ~lo ~hi f

exception Enough

let take_range t ~lo ?hi n =
  let out = ref [] and count = ref 0 and more = ref false in
  (try
     iter_range t ~lo ?hi (fun k v ->
         if !count = n then begin
           more := true;
           raise Enough
         end;
         out := (k, v) :: !out;
         incr count)
   with Enough -> ());
  (List.rev !out, !more)

(* --- range proofs (pruned subtrie) -------------------------------------- *)

type range_entry =
  | R_zero
  | R_pruned of Hash.t
  | R_leaf of { path : int array; value : bytes }
  | R_ext of { path : int array; child : range_entry }
  | R_branch of { children : range_entry array; value : bytes option }

type range_proof = range_entry

let prove_range t ~lo ~hi =
  let rec conv node q =
    if subtree_disjoint q ~lo ~hi then R_pruned (node_hash node)
    else
      match node with
      | Leaf l -> R_leaf { path = Array.copy l.lpath; value = l.lvalue }
      | Ext e ->
          R_ext
            { path = Array.copy e.epath;
              child = conv e.echild (Array.append q e.epath) }
      | Branch b ->
          let children = Array.make 16 R_zero in
          for i = 0 to 15 do
            match b.children.(i) with
            | None -> ()
            | Some n -> children.(i) <- conv n (Array.append q [| i |])
          done;
          R_branch { children; value = b.bvalue }
  in
  match t.root with None -> R_zero | Some n -> conv n [||]

exception Bad_range

let verify_range ~root ~lo ~hi proof =
  let out = ref [] in
  (* Recompute the root digest bottom-up.  A pruned hash is only accepted
     for subtrees provably disjoint from [lo, hi), so if the digest matches
     a trusted root, [out] holds *every* in-range binding of that trie. *)
  let rec digest entry q =
    match entry with
    | R_zero -> Hash.zero
    | R_pruned h ->
        if not (subtree_disjoint q ~lo ~hi) then raise Bad_range;
        if Hash.equal h Hash.zero then raise Bad_range;
        h
    | R_leaf { path; value } ->
        let k = Array.append q path in
        if key_in_range k ~lo ~hi then out := (k, value) :: !out;
        hash_leaf_fields path value
    | R_ext { path; child } ->
        if Array.length path = 0 then raise Bad_range;
        (match child with R_zero -> raise Bad_range | _ -> ());
        hash_ext_fields path (digest child (Array.append q path))
    | R_branch { children; value } ->
        if Array.length children <> 16 then raise Bad_range;
        (match value with
        | Some v when key_in_range q ~lo ~hi -> out := (q, v) :: !out
        | _ -> ());
        let hs = Array.make 16 Hash.zero in
        for i = 0 to 15 do
          hs.(i) <- digest children.(i) (Array.append q [| i |])
        done;
        hash_branch_fields hs value
  in
  try
    let d = digest proof [||] in
    if Hash.equal d root then Some (List.rev !out) else None
  with Bad_range -> None

let w_range_proof w proof =
  let rec go = function
    | R_zero -> Wire.w_u8 w 0
    | R_pruned h ->
        Wire.w_u8 w 1;
        Wire.w_hash w h
    | R_leaf { path; value } ->
        Wire.w_u8 w 2;
        w_nibbles w path;
        Wire.w_bytes w value
    | R_ext { path; child } ->
        Wire.w_u8 w 3;
        w_nibbles w path;
        go child
    | R_branch { children; value } ->
        Wire.w_u8 w 4;
        Array.iter go children;
        Wire.w_option w (Wire.w_bytes w) value
  in
  go proof

let r_range_proof r =
  let budget = ref 1_000_000 in
  let rec go depth =
    if depth > 4096 then raise Wire.Corrupt;
    decr budget;
    if !budget < 0 then raise Wire.Corrupt;
    match Wire.r_u8 r with
    | 0 -> R_zero
    | 1 -> R_pruned (Wire.r_hash r)
    | 2 ->
        let path = r_nibbles r in
        let value = Wire.r_bytes r in
        R_leaf { path; value }
    | 3 ->
        let path = r_nibbles r in
        R_ext { path; child = go (depth + 1) }
    | 4 ->
        let children = Array.make 16 R_zero in
        for i = 0 to 15 do
          children.(i) <- go (depth + 1)
        done;
        let value = Wire.r_option r (fun () -> Wire.r_bytes r) in
        R_branch { children; value }
    | _ -> raise Wire.Corrupt
  in
  go 0
