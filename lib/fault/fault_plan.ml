open Ledger_storage
open Ledger_bench_util

type kind =
  | Bit_flip of { offset : int; mask : int }
  | Truncate_tail of { drop : int }
  | Zero_range of { offset : int; len : int }
  | Torn_frame of { frame : int; within : int }

type fault = { file : string; kind : kind }

type t = { seed : int; faults : fault list }

let faults t = t.faults

let kind_to_string = function
  | Bit_flip { offset; mask } ->
      Printf.sprintf "bit-flip @%d mask=0x%02x" offset mask
  | Truncate_tail { drop } -> Printf.sprintf "truncate tail -%d bytes" drop
  | Zero_range { offset; len } -> Printf.sprintf "zero [%d,%d)" offset (offset + len)
  | Torn_frame { frame; within } ->
      Printf.sprintf "torn frame #%d (+%d bytes kept)" frame within

let fault_to_string f = Printf.sprintf "%s: %s" f.file (kind_to_string f.kind)

let to_string t =
  Printf.sprintf "fault plan (seed %d):\n%s" t.seed
    (String.concat "\n" (List.map (fun f -> "  " ^ fault_to_string f) t.faults))

(* Candidate files, sorted for determinism; only regular non-empty files
   qualify (a fault needs bytes to damage). *)
let targets ?only ~dir () =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun file ->
         let path = Filename.concat dir file in
         if not (Sys.is_directory path) then begin
           let size =
             let ic = open_in_bin path in
             let n = in_channel_length ic in
             close_in ic;
             n
           in
           let wanted =
             match only with None -> true | Some names -> List.mem file names
           in
           if wanted && size > 0 then Some (file, size) else None
         end
         else None)

(* (start, length) of every intact CRC frame of a {!Framing} log, in file
   order — the cut points a torn-frame fault chooses between. *)
let frame_spans path =
  let starts, ending =
    Framing.fold path ~init:[] (fun starts ~offset _ -> Some (offset :: starts))
  in
  (* a frame ends where the next one, or the walk's stop, begins *)
  snd
    (List.fold_left
       (fun (next, spans) start -> (start, (start, next - start) :: spans))
       (ending.Framing.offset, []) starts)

let plan ~seed ?(bit_flips = 0) ?(truncations = 0) ?(zero_ranges = 0)
    ?(torn_frames = 0) ?only ~dir () =
  let rng = Det_rng.create ~seed in
  let targets = targets ?only ~dir () in
  if targets = [] then { seed; faults = [] }
  else begin
    let pick_target () = Det_rng.pick rng (Array.of_list targets) in
    let faults = ref [] in
    for _ = 1 to bit_flips do
      let file, size = pick_target () in
      let offset = Det_rng.int rng size in
      let mask = 1 lsl Det_rng.int rng 8 in
      faults := { file; kind = Bit_flip { offset; mask } } :: !faults
    done;
    for _ = 1 to truncations do
      let file, size = pick_target () in
      (* chop somewhere inside the last records: between 1 byte and a
         quarter of the file *)
      let drop = 1 + Det_rng.int rng (max 1 (size / 4)) in
      faults := { file; kind = Truncate_tail { drop } } :: !faults
    done;
    for _ = 1 to zero_ranges do
      let file, size = pick_target () in
      let offset = Det_rng.int rng size in
      let len = 1 + Det_rng.int rng (min 64 (size - offset)) in
      faults := { file; kind = Zero_range { offset; len } } :: !faults
    done;
    for _ = 1 to torn_frames do
      (* crash inside a batched flush: everything before the chosen frame
         is durable, the frame itself is half-written *)
      let file, _ = pick_target () in
      match frame_spans (Filename.concat dir file) with
      | [] -> () (* not a framed log; no frame to tear *)
      | spans ->
          let frame = Det_rng.int rng (List.length spans) in
          let _, len = List.nth spans frame in
          let within = 1 + Det_rng.int rng (max 1 (len - 1)) in
          faults := { file; kind = Torn_frame { frame; within } } :: !faults
    done;
    { seed; faults = List.rev !faults }
  end

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  b

let write_file path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let apply_fault ~dir { file; kind } =
  let path = Filename.concat dir file in
  Ledger_obs.Metrics.incr "fault_injected_total";
  (match kind with
  | Bit_flip _ -> Ledger_obs.Metrics.incr "fault_bit_flip_total"
  | Truncate_tail _ -> Ledger_obs.Metrics.incr "fault_truncate_total"
  | Zero_range _ -> Ledger_obs.Metrics.incr "fault_zero_range_total"
  | Torn_frame _ -> Ledger_obs.Metrics.incr "fault_torn_frame_total");
  match kind with
  | Bit_flip { offset; mask } ->
      let b = read_file path in
      if offset < Bytes.length b then begin
        Bytes.set b offset
          (Char.chr (Char.code (Bytes.get b offset) lxor mask));
        write_file path b
      end
  | Truncate_tail { drop } ->
      let b = read_file path in
      let keep = max 0 (Bytes.length b - drop) in
      Framing.truncate_file path ~keep
  | Zero_range { offset; len } ->
      let b = read_file path in
      let len = min len (Bytes.length b - offset) in
      if len > 0 then begin
        Bytes.fill b offset len '\000';
        write_file path b
      end
  | Torn_frame { frame; within } -> (
      match frame_spans path with
      | [] -> ()
      | spans ->
          let start, len = List.nth spans (min frame (List.length spans - 1)) in
          (* keep at least one byte of the frame, never the whole of it *)
          let keep = start + max 1 (min within (len - 1)) in
          Framing.truncate_file path ~keep)

let apply t ~dir = List.iter (apply_fault ~dir) t.faults
