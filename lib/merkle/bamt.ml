open Ledger_crypto

type t = {
  batch_size : int;
  acc : Forest.t; (* sealed batch roots *)
  mutable sealed : Forest.t list; (* newest first, for in-batch proofs *)
  mutable current : Forest.t;
  mutable size : int;
}

let create ~batch_size =
  if batch_size < 2 then invalid_arg "Bamt.create: batch_size";
  {
    batch_size;
    acc = Forest.create ();
    sealed = [];
    current = Forest.create ();
    size = 0;
  }

let seal t =
  if Forest.size t.current > 0 then begin
    ignore (Forest.append t.acc (Forest.bagged_root t.current));
    t.sealed <- t.current :: t.sealed;
    t.current <- Forest.create ()
  end

let append t h =
  let i = t.size in
  ignore (Forest.append t.current h);
  t.size <- t.size + 1;
  if Forest.size t.current >= t.batch_size then seal t;
  i

let flush = seal
let size t = t.size
let batch_count t = Forest.size t.acc

(* Root: bag of [acc root (if any); open batch root (if any)]. *)
let root t =
  match (Forest.size t.acc > 0, Forest.size t.current > 0) with
  | false, false -> invalid_arg "Bamt.root: empty"
  | true, false -> Forest.bagged_root t.acc
  | false, true -> Forest.bagged_root t.current
  | true, true ->
      Hash.combine (Forest.bagged_root t.acc) (Forest.bagged_root t.current)

type proof = { in_batch : Proof.path; batch_path : Proof.path; open_batch : bool }

let prove t i =
  if i < 0 || i >= t.size then invalid_arg "Bamt.prove: out of range";
  let batch = i / t.batch_size in
  let pos = i mod t.batch_size in
  let sealed_batches = batch_count t in
  if batch < sealed_batches then begin
    let forest = List.nth t.sealed (sealed_batches - 1 - batch) in
    let in_batch = Forest.prove_bagged forest pos in
    let batch_path = Forest.prove_bagged t.acc batch in
    let batch_path =
      if Forest.size t.current > 0 then
        batch_path
        @ [ { Proof.dir = Proof.Right; digest = Forest.bagged_root t.current } ]
      else batch_path
    in
    { in_batch; batch_path; open_batch = false }
  end
  else begin
    let in_batch = Forest.prove_bagged t.current pos in
    let batch_path =
      if Forest.size t.acc > 0 then
        [ { Proof.dir = Proof.Left; digest = Forest.bagged_root t.acc } ]
      else []
    in
    { in_batch; batch_path; open_batch = true }
  end

let verify ~root ~leaf proof =
  let batch_root = Proof.apply leaf proof.in_batch in
  Hash.equal (Proof.apply batch_root proof.batch_path) root
