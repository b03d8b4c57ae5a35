open Ledger_crypto
module Wire = Ledger_crypto.Wire

(* "Nothing here" is said without an option box, by an [Empty] node in
   a root or child slot and by two physical sentinels, private fresh
   allocations compared with [==] so that no digest or stored value is
   ever taken for one: [unhashed] in a hash cache means "not computed
   yet", and [no_value] in a branch means "no key ends here". *)
let unhashed = Hash.of_bytes (Bytes.make 32 '\000')
let no_value = Bytes.create 0
let value_opt v = if v == no_value then None else Some v

(* Paths are {!Nibble} strings.  Insertion path-copies, so every field
   but a hash cache is fixed when its node is built; a cache goes once
   from [unhashed] to the node's digest, lazily, so a batch of inserts
   hashes each shared branch once. *)
type node =
  | Empty
  | Leaf of { path : string; value : bytes; mutable hash : Hash.t }
  | Ext of { path : string; child : node; mutable hash : Hash.t }
  | Branch of { children : node array; value : bytes; mutable hash : Hash.t }

type t = { mutable root : node; mutable cardinal : int }

let create () = { root = Empty; cardinal = 0 }
let cardinal t = t.cardinal

(* --- hashing ----------------------------------------------------------- *)

(* Each node's fields stream straight into one SHA-256 context:
   leaf  = H('L' || hex path || 0x00 || value),
   ext   = H('E' || hex path || 0x00 || child),
   branch = H('B' || child_0 || ... || child_15 [|| 'V' || value]). *)
let hash_leaf_fields path value =
  let ctx = Sha256.init () in
  Sha256.update_char ctx 'L';
  Sha256.update_string ctx path;
  Sha256.update_char ctx '\000';
  Sha256.update ctx value;
  Hash.finalize ctx

let hash_ext_fields path child_hash =
  let ctx = Sha256.init () in
  Sha256.update_char ctx 'E';
  Sha256.update_string ctx path;
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
  | Empty -> Hash.zero
  | Leaf l ->
      if l.hash == unhashed then l.hash <- hash_leaf_fields l.path l.value;
      l.hash
  | Ext e ->
      if e.hash == unhashed then e.hash <- hash_ext_fields e.path (node_hash e.child);
      e.hash
  | Branch b ->
      if b.hash == unhashed then
        b.hash <-
          hash_branch_fields (Array.map node_hash b.children) (value_opt b.value);
      b.hash

let root_hash t = node_hash t.root

(* --- insertion --------------------------------------------------------- *)

let leaf path value = Leaf { path; value; hash = unhashed }
let ext path child = Ext { path; child; hash = unhashed }
let branch children value = Branch { children; value; hash = unhashed }
(* [p] from nibble [k]; an empty rest is the one shared [""] *)
let drop p k =
  let n = String.length p in
  if k = 0 then p else if k = n then "" else String.sub p k (n - k)

(* Put [rest] -> [v] into the children of a branch being built: a
   non-empty remainder becomes a leaf child and [value] is returned; an
   empty one is the branch's own value and [v] is returned. *)
let put children value rest v =
  if rest = "" then v
  else begin
    children.(Nibble.get rest 0) <- leaf (drop rest 1) v;
    value
  end

(* Insertion is path-copying: every node along the descent is replaced
   by a fresh one rather than mutated, so any previously captured root
   ({!freeze}) keeps denoting the exact pre-insert trie.  Off-path
   subtrees, and a branch's children when only its value changes, are
   shared between versions; a children array is written only before its
   branch is built. *)
let rec insert_node t node key ki value =
  match node with
  | Empty ->
      t.cardinal <- t.cardinal + 1;
      leaf (drop key ki) value
  | Leaf l ->
      let cp = Nibble.common_prefix_length l.path 0 key ki in
      if cp = String.length l.path && cp = String.length key - ki then
        (* same key: fresh leaf, snapshots keep the old value *)
        leaf l.path value
      else begin
        let children = Array.make 16 Empty in
        let v = put children no_value (drop l.path cp) l.value in
        let b = branch children (put children v (drop key (ki + cp)) value) in
        t.cardinal <- t.cardinal + 1;
        if cp = 0 then b else ext (String.sub l.path 0 cp) b
      end
  | Ext e ->
      let cp = Nibble.common_prefix_length e.path 0 key ki in
      if cp = String.length e.path then
        ext e.path (insert_node t e.child key (ki + cp) value)
      else begin
        (* split the extension *)
        let children = Array.make 16 Empty in
        children.(Nibble.get e.path cp) <-
          (if cp + 1 = String.length e.path then e.child
           else ext (drop e.path (cp + 1)) e.child);
        let b = branch children (put children no_value (drop key (ki + cp)) value) in
        t.cardinal <- t.cardinal + 1;
        if cp = 0 then b else ext (String.sub e.path 0 cp) b
      end
  | Branch b ->
      if ki = String.length key then begin
        if b.value == no_value then t.cardinal <- t.cardinal + 1;
        branch b.children value
      end
      else begin
        let c = Nibble.get key ki in
        let children = Array.copy b.children in
        children.(c) <- insert_node t b.children.(c) key (ki + 1) value;
        branch children b.value
      end

let insert t ~key value =
  if key = "" then invalid_arg "Mpt.insert: empty key";
  if not (Nibble.is_path key) then invalid_arg "Mpt.insert: not a nibble path";
  t.root <- insert_node t t.root key 0 value

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

(* [path] is exactly what remains of [key] from [ki]. *)
let is_rest path key ki =
  String.length key - ki = String.length path
  && Nibble.common_prefix_length path 0 key ki = String.length path

let rec find_node node key ki depth =
  match node with
  | Empty -> (None, depth)
  | Leaf l -> ((if is_rest l.path key ki then Some l.value else None), depth)
  | Ext e ->
      let cp = Nibble.common_prefix_length e.path 0 key ki in
      if cp = String.length e.path then find_node e.child key (ki + cp) (depth + 1)
      else (None, depth)
  | Branch b -> (
      if ki = String.length key then (value_opt b.value, depth)
      else
        match Nibble.get key ki with
        | -1 -> (None, depth)
        | c -> find_node b.children.(c) key (ki + 1) (depth + 1))

let find t ~key = fst (find_node t.root key 0 1)
let find_string t ~key = find t ~key:(Nibble.of_hash (Hash.scatter key))

let lookup_depth t ~key =
  match find_node t.root key 0 1 with Some _, d -> d | None, _ -> 0

(* --- proofs ------------------------------------------------------------ *)

type proof_node =
  | Leaf_node of { path : string; value : bytes }
  | Extension_node of { path : string; child : Hash.t }
  | Branch_node of { children : Hash.t array; value : bytes option; descend : int }

type proof = proof_node list

let prove t ~key =
  let rec walk node ki acc =
    match node with
    | Empty -> None
    | Leaf l ->
        if is_rest l.path key ki then
          Some (List.rev (Leaf_node { path = l.path; value = l.value } :: acc))
        else None
    | Ext e ->
        let cp = Nibble.common_prefix_length e.path 0 key ki in
        if cp = String.length e.path then
          walk e.child (ki + cp)
            (Extension_node { path = e.path; child = node_hash e.child } :: acc)
        else None
    | Branch b -> (
        let step descend =
          Branch_node
            { children = Array.map node_hash b.children;
              value = value_opt b.value;
              descend }
        in
        if ki = String.length key then
          if b.value == no_value then None else Some (List.rev (step (-1) :: acc))
        else
          match Nibble.get key ki with
          | -1 -> None
          | c -> walk b.children.(c) (ki + 1) (step c :: acc))
  in
  walk t.root 0 []

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
              rest = [] && is_rest path key ki && Bytes.equal v value
          | Extension_node { path; child } ->
              Nibble.common_prefix_length path 0 key ki = String.length path
              && walk child (ki + String.length path) rest
          | Branch_node { children; value = bv; descend } ->
              if descend = -1 then
                rest = [] && ki = String.length key
                && (match bv with Some v -> Bytes.equal v value | None -> false)
              else
                ki < String.length key
                && Nibble.get key ki = descend
                && descend >= 0 && descend < 16
                && walk children.(descend) (ki + 1) rest)
  in
  walk root 0 proof

let verify_proof_string ~root ~key ~value proof =
  verify_proof ~root ~key:(Nibble.of_hash (Hash.scatter key)) ~value proof

(* --- wire codec ---------------------------------------------------------- *)

(* A path travels as its length and one byte per nibble value. *)
let w_nibbles w path =
  Wire.w_int w (String.length path);
  for i = 0 to String.length path - 1 do
    Wire.w_u8 w (Nibble.get path i)
  done

let r_nibbles r =
  let n = Wire.r_int r in
  if n < 0 || n > Nibble.max_length then raise Wire.Corrupt;
  String.init n (fun _ ->
      let v = Wire.r_u8 r in
      if v > 15 then raise Wire.Corrupt;
      Nibble.digit v)

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
   branch's children.  That is [String.compare] on hex paths, and it
   matches a depth-first, value-first, child-ascending traversal of the
   trie, which is what every ordered operation below performs. *)

let compare_keys = String.compare

let is_strict_prefix p k =
  String.length p < String.length k && String.starts_with ~prefix:p k

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

let child_key q i = q ^ String.make 1 (Nibble.digit i)

let rec iter_in_range node q ~lo ~hi f =
  match node with
  | Empty -> ()
  | Leaf l ->
      let k = q ^ l.path in
      if key_in_range k ~lo ~hi then f k l.value
  | Ext e ->
      let q' = q ^ e.path in
      if not (subtree_disjoint q' ~lo ~hi) then iter_in_range e.child q' ~lo ~hi f
  | Branch b ->
      if b.value != no_value && key_in_range q ~lo ~hi then f q b.value;
      Array.iteri
        (fun i child ->
          if child != Empty then begin
            let q' = child_key q i in
            if not (subtree_disjoint q' ~lo ~hi) then iter_in_range child q' ~lo ~hi f
          end)
        b.children

let iter_range t ~lo ?hi f = iter_in_range t.root "" ~lo ~hi f

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
  | R_leaf of { path : string; value : bytes }
  | R_ext of { path : string; child : range_entry }
  | R_branch of { children : range_entry array; value : bytes option }

type range_proof = range_entry

let prove_range t ~lo ~hi =
  let rec conv node q =
    match node with
    | Empty -> R_zero
    | _ when subtree_disjoint q ~lo ~hi -> R_pruned (node_hash node)
    | Leaf l -> R_leaf { path = l.path; value = l.value }
    | Ext e -> R_ext { path = e.path; child = conv e.child (q ^ e.path) }
    | Branch b ->
        let children = Array.make 16 R_zero in
        for i = 0 to 15 do
          if b.children.(i) != Empty then
            children.(i) <- conv b.children.(i) (child_key q i)
        done;
        R_branch { children; value = value_opt b.value }
  in
  conv t.root ""

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
        let k = q ^ path in
        if key_in_range k ~lo ~hi then out := (k, value) :: !out;
        hash_leaf_fields path value
    | R_ext { path; child } ->
        if path = "" then raise Bad_range;
        (match child with R_zero -> raise Bad_range | _ -> ());
        hash_ext_fields path (digest child (q ^ path))
    | R_branch { children; value } ->
        if Array.length children <> 16 then raise Bad_range;
        (match value with
        | Some v when key_in_range q ~lo ~hi -> out := (q, v) :: !out
        | _ -> ());
        let hs = Array.make 16 Hash.zero in
        for i = 0 to 15 do
          hs.(i) <- digest children.(i) (child_key q i)
        done;
        hash_branch_fields hs value
  in
  try
    let d = digest proof "" in
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
    if depth > Nibble.max_length then raise Wire.Corrupt;
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
