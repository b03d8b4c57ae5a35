open Ledger_crypto
open Ledger_storage
module Proof = Ledger_merkle.Proof
type transaction = { mutable key : string; mutable value : bytes; seq : int }

type t = {
  clock : Clock.t;
  block_size : int;
  state : (string, bytes) Hashtbl.t;
  mutable history : transaction list; (* newest first *)
  mutable count : int;
  mutable published : Hash.t list; (* trusted external storage, newest first *)
}

let create ?(block_size = 16) ~clock () =
  { clock; block_size; state = Hashtbl.create 64; history = []; count = 0;
    published = [] }

let execute t ~key value =
  Clock.advance t.clock 100L;
  Hashtbl.replace t.state key (Bytes.copy value);
  t.history <- { key; value = Bytes.copy value; seq = t.count } :: t.history;
  t.count <- t.count + 1

let get t ~key = Option.map Bytes.copy (Hashtbl.find_opt t.state key)
let history_length t = t.count

let tx_digest tx =
  Hash.digest_string (Printf.sprintf "%d:%s=%s" tx.seq tx.key (Bytes.to_string tx.value))

(* Hash-chain the history in block_size groups, like ledger tables chain
   block digests. *)
let ledger_digest t =
  let ordered = List.rev t.history in
  let rec chain acc pending n = function
    | [] ->
        if pending = [] then acc
        else Hash.combine acc (Proof.node_set_digest (List.rev pending))
    | tx :: rest ->
        let pending = tx_digest tx :: pending in
        if n + 1 = t.block_size then
          chain
            (Hash.combine acc (Proof.node_set_digest (List.rev pending)))
            [] 0 rest
        else chain acc pending (n + 1) rest
  in
  chain Hash.zero [] 0 ordered

let publish_digest t =
  let d = ledger_digest t in
  t.published <- d :: t.published;
  d

let verify t =
  match t.published with
  | [] -> `No_published_digest
  | latest :: _ ->
      (* Forward integrity: only the state *as of the publication* is
         protected; we conservatively recompute the full chain, which
         matches when no transactions were added since the publication,
         and otherwise check that the published digest is a chain prefix
         by replaying up to each possible cut. *)
      let ordered = List.rev t.history in
      let rec prefixes acc pending n txs found =
        let here =
          if pending = [] then acc
          else Hash.combine acc (Proof.node_set_digest (List.rev pending))
        in
        let found = found || Hash.equal here latest in
        match txs with
        | [] -> found
        | tx :: rest ->
            let pending = tx_digest tx :: pending in
            if n + 1 = t.block_size then
              prefixes
                (Hash.combine acc (Proof.node_set_digest (List.rev pending)))
                [] 0 rest found
            else prefixes acc pending (n + 1) rest found
      in
      if prefixes Hash.zero [] 0 ordered false then `Ok else `Tampered

module Unsafe = struct
  let rewrite_history t ~index ~key value =
    match List.find_opt (fun tx -> tx.seq = index) t.history with
    | Some tx ->
        tx.key <- key;
        tx.value <- Bytes.copy value
    | None -> invalid_arg "Sql_ledger_sim.Unsafe.rewrite_history: bad index"
end
