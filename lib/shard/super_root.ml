open Ledger_crypto
open Ledger_merkle

type presence = Sealed | Carried

type sealed = {
  epoch : int;
  sealed_at : int64;
  shard_roots : Hash.t array;
  shard_sizes : int array;
  presence : presence array;
  root : Hash.t;
}

(* [Sealed] keeps the original "shard:<i>" domain so all-healthy epochs
   commit to bit-identical super-roots; a carried (skipped) shard gets
   its own domain — a degraded epoch can never impersonate a full one. *)
let leaf ~shard ~presence ~root ~size =
  let tag =
    match presence with
    | Sealed -> Printf.sprintf "shard:%d" shard
    | Carried -> Printf.sprintf "shard-carried:%d" shard
  in
  Hash.combine (Hash.digest_string tag)
    (Hash.combine root (Hash.digest_string (string_of_int size)))

let tree_of roots sizes presence =
  Merkle_tree.build
    (List.init (Array.length roots) (fun i ->
         leaf ~shard:i ~presence:presence.(i) ~root:roots.(i) ~size:sizes.(i)))

let seal ~epoch ~at ?presence shards =
  if Array.length shards = 0 then invalid_arg "Super_root.seal: empty fleet";
  let presence =
    match presence with
    | None -> Array.make (Array.length shards) Sealed
    | Some p ->
        if Array.length p <> Array.length shards then
          invalid_arg "Super_root.seal: presence length mismatch";
        p
  in
  let shard_roots = Array.map fst shards in
  let shard_sizes = Array.map snd shards in
  let root = Merkle_tree.root (tree_of shard_roots shard_sizes presence) in
  { epoch; sealed_at = at; shard_roots; shard_sizes; presence; root }

let carried s =
  Array.to_list
    (Array.of_seq
       (Seq.filter_map
          (fun (i, p) -> if p = Carried then Some i else None)
          (Array.to_seq (Array.mapi (fun i p -> (i, p)) s.presence))))

let full s = carried s = []

let commitment s =
  Hash.combine
    (Hash.digest_string (Printf.sprintf "super-root:%d" s.epoch))
    s.root

type inclusion = {
  shard : int;
  shards : int;
  shard_root : Hash.t;
  shard_size : int;
  shard_presence : presence;
  epoch : int;
  path : Proof.path;
}

let prove s ~shard =
  let n = Array.length s.shard_roots in
  if shard < 0 || shard >= n then
    invalid_arg
      (Printf.sprintf "Super_root.prove: shard %d out of range [0,%d)" shard n);
  let tree = tree_of s.shard_roots s.shard_sizes s.presence in
  {
    shard;
    shards = n;
    shard_root = s.shard_roots.(shard);
    shard_size = s.shard_sizes.(shard);
    shard_presence = s.presence.(shard);
    epoch = s.epoch;
    path = Merkle_tree.prove tree shard;
  }

let verify ~super inc =
  if inc.shard < 0 || inc.shard >= inc.shards then false
  else
    let l =
      leaf ~shard:inc.shard ~presence:inc.shard_presence ~root:inc.shard_root
        ~size:inc.shard_size
    in
    let root = Proof.apply l inc.path in
    Hash.equal super
      (Hash.combine
         (Hash.digest_string (Printf.sprintf "super-root:%d" inc.epoch))
         root)

(* --- wire codecs ----------------------------------------------------------- *)

let w_presence w = function
  | Sealed -> Wire.w_u8 w 0
  | Carried -> Wire.w_u8 w 1

let r_presence r =
  match Wire.r_u8 r with
  | 0 -> Sealed
  | 1 -> Carried
  | _ -> raise Wire.Corrupt

let w_sealed w (s : sealed) =
  Wire.w_int w s.epoch;
  Wire.w_int64 w s.sealed_at;
  Wire.w_list w (Wire.w_hash w) (Array.to_list s.shard_roots);
  Wire.w_list w (Wire.w_int w) (Array.to_list s.shard_sizes);
  Wire.w_list w (w_presence w) (Array.to_list s.presence);
  Wire.w_hash w s.root

let r_sealed r =
  let epoch = Wire.r_int r in
  let sealed_at = Wire.r_int64 r in
  let shard_roots =
    Array.of_list (Wire.r_list r (fun () -> Wire.r_hash r))
  in
  let shard_sizes = Array.of_list (Wire.r_list r (fun () -> Wire.r_int r)) in
  let presence = Array.of_list (Wire.r_list r (fun () -> r_presence r)) in
  let root = Wire.r_hash r in
  if
    Array.length shard_roots = 0
    || Array.length shard_roots <> Array.length shard_sizes
    || Array.length shard_roots <> Array.length presence
  then raise Wire.Corrupt;
  (* the root is re-derivable: refuse a frame whose announced root does
     not match its own leaves — a frame that strips a Carried flag (or
     forges one) fails here *)
  let rebuilt = Merkle_tree.root (tree_of shard_roots shard_sizes presence) in
  if not (Hash.equal rebuilt root) then raise Wire.Corrupt;
  { epoch; sealed_at; shard_roots; shard_sizes; presence; root }

let encode_sealed s = Wire.encode (fun w -> w_sealed w s)

let decode_sealed b = Wire.decode b r_sealed

let w_inclusion w inc =
  Wire.w_int w inc.shard;
  Wire.w_int w inc.shards;
  Wire.w_hash w inc.shard_root;
  Wire.w_int w inc.shard_size;
  w_presence w inc.shard_presence;
  Wire.w_int w inc.epoch;
  Ledger_merkle.Proof_codec.w_path w inc.path

let r_inclusion r =
  let shard = Wire.r_int r in
  let shards = Wire.r_int r in
  let shard_root = Wire.r_hash r in
  let shard_size = Wire.r_int r in
  let shard_presence = r_presence r in
  let epoch = Wire.r_int r in
  let path = Ledger_merkle.Proof_codec.r_path r in
  { shard; shards; shard_root; shard_size; shard_presence; epoch; path }

let encode_inclusion inc = Wire.encode (fun w -> w_inclusion w inc)

let decode_inclusion b = Wire.decode b r_inclusion
