open Ledger_crypto
open Ledger_core
module Range_query = Ledger_query.Range_query

type shard_answer = {
  shard : int;
  query_root : Hash.t;
  commitment : Hash.t;
  size : int;
  pages : Range_query.page list;
}

type scatter = { shards : int; answers : shard_answer list }

exception Reject of string

let paginate idx ~spec ?window ~page_size () =
  let rec go after acc guard =
    if guard > 1_000_000 then failwith "Sharded_query: pagination runaway"
    else
      let pg = Range_query.page idx ~spec ?window ?after ~page_size () in
      match pg.Range_query.cursor with
      | Some c -> go (Some c) (pg :: acc) (guard + 1)
      | None -> List.rev (pg :: acc)
  in
  go None [] 0

(* Each shard answers from its own published view: root, commitment,
   size and pages come from one snapshot even while the shard's writer
   keeps appending, so the scatter is safe from any domain. *)
let scatter t ~spec ?window ~page_size () =
  if page_size <= 0 then invalid_arg "Sharded_query.scatter: bad page_size";
  let module RV = Ledger.Read_view in
  let n = Sharded_ledger.shard_count t in
  let answers =
    List.init n (fun i ->
        let v = Ledger.read_view (Sharded_ledger.shard t i) in
        {
          shard = i;
          query_root = RV.query_root v;
          commitment = RV.commitment v;
          size = RV.size v;
          pages = paginate (RV.query_index v) ~spec ?window ~page_size ();
        })
  in
  { shards = n; answers }

(* Client-side gather: each shard's pagination is verified against that
   shard's query root, each verified clue is re-routed through the public
   placement function (a shard cannot answer for keys it does not own —
   nor omit keys it does own, because its own completeness proof covers
   the whole range), and the disjoint per-shard results merge into one
   globally ordered set. *)
let merge ?sealed ~shards ~spec ?window ~page_size sc =
  try
    if sc.shards <> shards then raise (Reject "fleet size mismatch");
    if List.length sc.answers <> shards then
      raise (Reject "wrong number of shard answers");
    let seen = Array.make shards false in
    let router = Shard_router.create ~shards in
    let per_shard =
      List.map
        (fun a ->
          if a.shard < 0 || a.shard >= shards then
            raise (Reject "answer names an unknown shard");
          if seen.(a.shard) then
            raise
              (Reject (Printf.sprintf "shard %d answered twice" a.shard));
          seen.(a.shard) <- true;
          (match sealed with
          | Some s ->
              if
                not
                  (Hash.equal s.Super_root.shard_roots.(a.shard) a.commitment
                  && s.Super_root.shard_sizes.(a.shard) = a.size)
              then
                raise
                  (Reject
                     (Printf.sprintf
                        "shard %d answer does not match the sealed epoch"
                        a.shard))
          | None -> ());
          match
            Range_query.verify_pages ~root:a.query_root ~spec ?window
              ~page_size a.pages
          with
          | Error e ->
              raise (Reject (Printf.sprintf "shard %d: %s" a.shard e))
          | Ok rows ->
              List.iter
                (fun (r : Range_query.result_row) ->
                  if Shard_router.route_clue router r.Range_query.r_clue <> a.shard
                  then
                    raise
                      (Reject
                         (Printf.sprintf
                            "shard %d answered for a clue it does not own"
                            a.shard)))
                rows;
              rows)
        sc.answers
    in
    Array.iteri
      (fun i s -> if not s then raise (Reject (Printf.sprintf "shard %d missing" i)))
      seen;
    Ok
      (List.concat per_shard
      |> List.sort (fun (a : Range_query.result_row) b ->
             String.compare a.Range_query.r_clue b.Range_query.r_clue))
  with Reject msg -> Error msg

(* --- wire codec ---------------------------------------------------------- *)

let w_answer w a =
  Wire.w_int w a.shard;
  Wire.w_hash w a.query_root;
  Wire.w_hash w a.commitment;
  Wire.w_int w a.size;
  Wire.w_list w (Range_query.w_page w) a.pages

let r_answer r =
  let shard = Wire.r_int r in
  let query_root = Wire.r_hash r in
  let commitment = Wire.r_hash r in
  let size = Wire.r_int r in
  let pages = Wire.r_list ~max:100_000 r (fun () -> Range_query.r_page r) in
  { shard; query_root; commitment; size; pages }

let w_scatter w sc =
  Wire.w_int w sc.shards;
  Wire.w_list w (w_answer w) sc.answers

let r_scatter r =
  let shards = Wire.r_int r in
  if shards <= 0 then raise Wire.Corrupt;
  let answers = Wire.r_list ~max:4096 r (fun () -> r_answer r) in
  { shards; answers }

let encode_scatter sc = Wire.encode (fun w -> w_scatter w sc)

let decode_scatter b = Wire.decode b r_scatter
