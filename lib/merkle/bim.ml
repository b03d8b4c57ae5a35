open Ledger_crypto

type header = {
  height : int;
  prev_hash : Hash.t;
  merkle_root : Hash.t;
  timestamp : int64;
}

type sealed = { hdr : header; tree : Merkle_tree.t }

type t = {
  block_size : int;
  mutable blocks : sealed list; (* newest first *)
  mutable pending : Hash.t list; (* newest first *)
  mutable pending_count : int;
  mutable size : int;
  mutable last_timestamp : int64;
}

let create ~block_size =
  if block_size < 1 then invalid_arg "Bim.create: block_size";
  {
    block_size;
    blocks = [];
    pending = [];
    pending_count = 0;
    size = 0;
    last_timestamp = 0L;
  }

let header_hash h =
  let buf = Buffer.create 80 in
  Buffer.add_string buf (string_of_int h.height);
  Buffer.add_bytes buf (Hash.to_bytes h.prev_hash);
  Buffer.add_bytes buf (Hash.to_bytes h.merkle_root);
  Buffer.add_string buf (Int64.to_string h.timestamp);
  Hash.digest_bytes (Buffer.to_bytes buf)

let seal t =
  if t.pending_count > 0 then begin
    let leaves = List.rev t.pending in
    let tree = Merkle_tree.build leaves in
    let prev_hash =
      match t.blocks with
      | [] -> Hash.zero
      | { hdr; _ } :: _ -> header_hash hdr
    in
    let hdr =
      {
        height = List.length t.blocks;
        prev_hash;
        merkle_root = Merkle_tree.root tree;
        timestamp = t.last_timestamp;
      }
    in
    t.blocks <- { hdr; tree } :: t.blocks;
    t.pending <- [];
    t.pending_count <- 0
  end

let append t ?(timestamp = 0L) h =
  t.pending <- h :: t.pending;
  t.pending_count <- t.pending_count + 1;
  t.last_timestamp <- timestamp;
  let i = t.size in
  t.size <- t.size + 1;
  if t.pending_count >= t.block_size then seal t;
  i

let flush = seal
let size t = t.size
let block_count t = List.length t.blocks

let nth_block t b =
  let n = block_count t in
  if b < 0 || b >= n then invalid_arg "Bim: block out of range";
  List.nth t.blocks (n - 1 - b)

let headers t = List.rev_map (fun s -> s.hdr) t.blocks

let verify_header_chain hdrs =
  let rec go prev height = function
    | [] -> true
    | h :: rest ->
        h.height = height
        && Hash.equal h.prev_hash prev
        && go (header_hash h) (height + 1) rest
  in
  match hdrs with [] -> true | _ -> go Hash.zero 0 hdrs

type proof = { block : int; block_header : header; path : Proof.path }

let prove t i =
  if i < 0 || i >= t.size then invalid_arg "Bim.prove: out of range";
  let b = i / t.block_size in
  if b >= block_count t then
    invalid_arg "Bim.prove: transaction's block not yet sealed";
  let { hdr; tree } = nth_block t b in
  { block = b; block_header = hdr; path = Merkle_tree.prove tree (i mod t.block_size) }

let verify ~headers ~leaf { block; block_header; path } =
  block >= 0 && block < Array.length headers
  && header_hash headers.(block) = header_hash block_header
  && Hash.equal (Proof.apply leaf path) block_header.merkle_root

let header_bytes t = block_count t * 80
