open Ledger_crypto

type direction = Left | Right
type step = { dir : direction; digest : Hash.t }
type path = step list

let apply leaf path =
  List.fold_left
    (fun acc { dir; digest } ->
      match dir with
      | Left -> Hash.combine digest acc
      | Right -> Hash.combine acc digest)
    leaf path

let verify ~leaf ~root path = Hash.equal (apply leaf path) root
let length = List.length

type node_set = Hash.t list

let node_set_digest peaks =
  let buf = Buffer.create (32 * List.length peaks) in
  List.iter (fun h -> Buffer.add_bytes buf (Hash.to_bytes h)) peaks;
  Hash.digest_bytes (Buffer.to_bytes buf)

let node_set_equal a b = List.length a = List.length b && List.for_all2 Hash.equal a b
