(* Minimal JSON value type and serializer for machine-readable bench
   output (BENCH_*.json).  Hand-rolled because the toolchain carries no
   JSON library; the emitted subset is plain RFC 8259. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape = Ledger_obs.Obs_core.escape

let float_repr f =
  (* nan/inf have no JSON spelling; null keeps consumers honest *)
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then None
  else if Float.is_integer f && Float.abs f < 1e15 then
    Some (Printf.sprintf "%.0f" f)
  else Some (Printf.sprintf "%.6g" f)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> (
      match float_repr f with
      | Some s -> Buffer.add_string buf s
      | None -> Buffer.add_string buf "null")
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let write_file path v =
  let oc = open_out path in
  output_string oc (to_string v);
  output_char oc '\n';
  close_out oc
