open Ledger_crypto
open Ledger_merkle
open Ledger_mpt
module Wire = Ledger_crypto.Wire

module SMap = Map.Make (String)

(* [clues] is the only per-clue table, shared by the writer and every
   {!freeze}.  A published [Shrubs.t] is never appended to: {!insert}
   appends to a header copy ({!Shrubs.freeze}) of the clue's latest one
   and publishes the copy.  The copy shares the node arrays, but the one
   writer only writes past the latest count, which is at or past every
   count a published header pins. *)
type t = {
  trie : Mpt.t; (* CM-Tree1 *)
  mutable clues : Shrubs.t SMap.t; (* CM-Tree2 of every clue *)
}

let create () = { trie = Mpt.create (); clues = SMap.empty }

(* The CM-Tree1 value: size and peak set of the clue's CM-Tree2, so a
   verifier can rebuild the node-set commitment from the trie alone. *)
let encode_value shrubs =
  let peaks = Shrubs.peaks shrubs in
  let buf = Buffer.create (16 + (32 * List.length peaks)) in
  Buffer.add_string buf (string_of_int (Shrubs.size shrubs));
  Buffer.add_char buf '\000';
  List.iter (fun h -> Buffer.add_bytes buf (Hash.to_bytes h)) peaks;
  Buffer.to_bytes buf

let decode_value b =
  match Bytes.index_opt b '\000' with
  | None -> None
  | Some sep -> (
      match int_of_string_opt (Bytes.sub_string b 0 sep) with
      | None -> None
      | Some size ->
          let rest = Bytes.length b - sep - 1 in
          if rest mod 32 <> 0 then None
          else begin
            let peaks =
              List.init (rest / 32) (fun i ->
                  Hash.of_bytes (Bytes.sub b (sep + 1 + (32 * i)) 32))
            in
            Some (size, peaks)
          end)

let insert t ~clue digest =
  let shrubs =
    match SMap.find_opt clue t.clues with
    | Some s -> Shrubs.freeze s
    | None -> Shrubs.create ()
  in
  let version = Shrubs.append shrubs digest in
  t.clues <- SMap.add clue shrubs t.clues;
  Mpt.insert_string t.trie ~key:clue (encode_value shrubs);
  version

let freeze t = { trie = Mpt.freeze t.trie; clues = t.clues }
let find_accumulator t clue = SMap.find_opt clue t.clues

let entries t ~clue =
  match find_accumulator t clue with
  | Some s -> Shrubs.size s
  | None -> 0

let entry t ~clue i =
  match find_accumulator t clue with
  | Some s -> Shrubs.leaf s i
  | None -> invalid_arg "Cm_tree.entry: unknown clue"

let clue_count t = SMap.cardinal t.clues
let root_hash t = Mpt.root_hash t.trie

let clue_commitment t ~clue =
  Option.map Shrubs.commitment (find_accumulator t clue)

let mpt_lookup_depth t ~clue =
  Mpt.lookup_depth t.trie ~key:(Nibble.of_hash (Hash.scatter clue))

type clue_proof = {
  clue : string;
  version_range : int * int;
  accumulator_proof : Range_proof.t;
  trie_proof : Mpt.proof;
  committed_value : bytes;
}

let prove_clue t ~clue ?first ?last () =
  match find_accumulator t clue with
  | None -> None
  | Some shrubs ->
      let n = Shrubs.size shrubs in
      if n = 0 then None
      else begin
        let first = Option.value first ~default:0 in
        let last = Option.value last ~default:(n - 1) in
        match Mpt.prove_string t.trie ~key:clue with
        | None -> None
        | Some trie_proof ->
            Some
              {
                clue;
                version_range = (first, last);
                accumulator_proof =
                  Range_proof.prove (Shrubs.forest shrubs) ~first ~last;
                trie_proof;
                committed_value = encode_value shrubs;
              }
      end

let verify_clue ~root ~known proof =
  match decode_value proof.committed_value with
  | None -> false
  | Some (size, peaks) ->
      (* layer 2: reconstruct the clue accumulator's peaks *)
      size = proof.accumulator_proof.Range_proof.size
      && Proof.node_set_equal peaks proof.accumulator_proof.Range_proof.peak_set
      && Range_proof.verify ~known proof.accumulator_proof
      (* layer 1: the trie walk commits the value under the ledger root *)
      && Mpt.verify_proof_string ~root ~key:proof.clue
           ~value:proof.committed_value proof.trie_proof

let verify_clue_server t ~known ~clue =
  match find_accumulator t clue with
  | None -> false
  | Some shrubs ->
      known <> []
      && List.for_all
           (fun (i, h) ->
             i >= 0 && i < Shrubs.size shrubs && Hash.equal (Shrubs.leaf shrubs i) h)
           known

let stored_digests t =
  SMap.fold (fun _ s acc -> acc + Shrubs.stored_digests s) t.clues 0

(* --- wire codec ------------------------------------------------------------ *)

let w_clue_proof w p =
  Wire.w_string w p.clue;
  Wire.w_int w (fst p.version_range);
  Wire.w_int w (snd p.version_range);
  Proof_codec.w_range_proof w p.accumulator_proof;
  Mpt.w_proof w p.trie_proof;
  Wire.w_bytes w p.committed_value

let r_clue_proof r =
  let clue = Wire.r_string r in
  let first = Wire.r_int r in
  let last = Wire.r_int r in
  let accumulator_proof = Proof_codec.r_range_proof r in
  let trie_proof = Mpt.r_proof r in
  let committed_value = Wire.r_bytes r in
  { clue; version_range = (first, last); accumulator_proof; trie_proof;
    committed_value }

(* --- lineage extension proofs --------------------------------------------- *)

let prove_clue_extension t ~clue ~old_size =
  match find_accumulator t clue with
  | None -> None
  | Some shrubs ->
      if old_size <= 0 || old_size > Shrubs.size shrubs then None
      else Some (Shrubs.prove_consistency shrubs ~old_size)

let verify_clue_extension ~old_value ~new_value proof =
  match (decode_value old_value, decode_value new_value) with
  | Some (old_size, old_peaks), Some (new_size, new_peaks) ->
      Shrubs.verify_consistency ~old_size ~old_peaks ~new_size ~new_peaks proof
  | _ -> false
