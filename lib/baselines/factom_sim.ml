open Ledger_crypto
open Ledger_storage
open Ledger_merkle

(* A sealed directory block: per-chain entry-block trees plus a directory
   tree over the entry-block roots, anchored at a bim index. *)
type directory_block = {
  height : int;
  chains : (string * Merkle_tree.t) list; (* chain -> entry block tree *)
  directory_tree : Merkle_tree.t; (* over entry-block roots *)
  anchor_index : int; (* transaction index in the bitcoin-like chain *)
  timestamp : int64;
}

type t = {
  clock : Clock.t;
  anchor_interval_us : int64;
  bitcoin : Bim.t;
  mutable pending : (string * Hash.t) list; (* chain, entry digest; newest first *)
  mutable blocks : directory_block list; (* newest first *)
  mutable bytes : int;
  mutable last_seal : int64;
  (* entry digest -> (directory height, chain) for proof lookup *)
  index : (string, int * string) Hashtbl.t;
}

let create ?(anchor_interval_ms = 600_000.) ~clock () =
  {
    clock;
    anchor_interval_us = Clock.us_of_ms anchor_interval_ms;
    bitcoin = Bim.create ~block_size:1;
    pending = [];
    blocks = [];
    bytes = 0;
    last_seal = Clock.now clock;
  index = Hashtbl.create 256;
  }

let add_entry t ~chain payload =
  let digest = Hash.digest_string (chain ^ ":" ^ Bytes.to_string payload) in
  t.pending <- (chain, digest) :: t.pending;
  t.bytes <- t.bytes + Bytes.length payload + 32;
  digest

let seal_directory_block t =
  if t.pending = [] then invalid_arg "Factom_sim.seal_directory_block: empty";
  let by_chain = Hashtbl.create 8 in
  List.iter
    (fun (chain, digest) ->
      match Hashtbl.find_opt by_chain chain with
      | Some r -> r := digest :: !r
      | None -> Hashtbl.replace by_chain chain (ref [ digest ]))
    t.pending;
  let chains =
    Hashtbl.fold
      (fun chain digests acc -> (chain, Merkle_tree.build (List.rev !digests)) :: acc)
      by_chain []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let directory_tree =
    Merkle_tree.build (List.map (fun (_, tree) -> Merkle_tree.root tree) chains)
  in
  let height = List.length t.blocks in
  let anchor_index =
    Bim.append t.bitcoin ~timestamp:(Clock.now t.clock)
      (Merkle_tree.root directory_tree)
  in
  Bim.flush t.bitcoin;
  let block =
    { height; chains; directory_tree; anchor_index;
      timestamp = Clock.now t.clock }
  in
  t.blocks <- block :: t.blocks;
  List.iter
    (fun (chain, digest) ->
      Hashtbl.replace t.index (Hash.to_hex digest) (height, chain))
    t.pending;
  t.pending <- [];
  t.bytes <- t.bytes + 256 (* entry/directory block headers *) + 80;
  t.last_seal <- Clock.now t.clock;
  height

let tick t =
  if
    t.pending <> []
    && Int64.compare (Int64.sub (Clock.now t.clock) t.last_seal)
         t.anchor_interval_us
       >= 0
  then ignore (seal_directory_block t)

let directory_blocks t = List.length t.blocks

type proof = {
  entry_path : Proof.path; (* entry -> entry block root *)
  chain_position : int; (* entry block root position in directory tree *)
  directory_path : Proof.path; (* entry block root -> directory root *)
  bitcoin_proof : Bim.proof;
  height : int;
}

let find_block t height = List.nth t.blocks (List.length t.blocks - 1 - height)

let leaf_index tree target =
  let n = Merkle_tree.size tree in
  let rec go i =
    if i >= n then None
    else if
      Proof.verify ~leaf:target ~root:(Merkle_tree.root tree)
        (Merkle_tree.prove tree i)
    then Some i
    else go (i + 1)
  in
  go 0

let prove_entry t ~chain digest =
  match Hashtbl.find_opt t.index (Hash.to_hex digest) with
  | None -> None
  | Some (height, chain') when chain = chain' -> (
      let block = find_block t height in
      match List.assoc_opt chain block.chains with
      | None -> None
      | Some entry_tree -> (
          match leaf_index entry_tree digest with
          | None -> None
          | Some i ->
              let entry_path = Merkle_tree.prove entry_tree i in
              let chain_position =
                let rec pos k = function
                  | [] -> -1
                  | (c, _) :: rest -> if c = chain then k else pos (k + 1) rest
                in
                pos 0 block.chains
              in
              let directory_path =
                Merkle_tree.prove block.directory_tree chain_position
              in
              Some
                { entry_path; chain_position; directory_path;
                  bitcoin_proof = Bim.prove t.bitcoin block.anchor_index;
                  height }))
  | Some _ -> None

let verify_entry t ~chain digest proof =
  ignore chain;
  if proof.height < 0 || proof.height >= List.length t.blocks then false
  else begin
    let entry_block_root = Proof.apply digest proof.entry_path in
    let directory_root = Proof.apply entry_block_root proof.directory_path in
    let headers = Array.of_list (Bim.headers t.bitcoin) in
    Bim.verify ~headers ~leaf:directory_root proof.bitcoin_proof
  end

let anchored_time t ~chain digest =
  match Hashtbl.find_opt t.index (Hash.to_hex digest) with
  | Some (height, chain') when chain = chain' ->
      Some (find_block t height).timestamp
  | Some _ | None -> None

let storage_bytes t = t.bytes + Bim.header_bytes t.bitcoin
