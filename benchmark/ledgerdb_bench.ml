(* Entry point.  Without a mode word it is the benchmark client:

     ledgerdb_bench --workload W --seed N [--seconds S] [--trace 0|1] [--quick]
     ledgerdb_bench --describe [--seconds S] [--quick]

   and the last line of its standard output is the result object.  The
   [serve] and [replay] modes are the child processes it starts. *)

open Bench_lib

let usage () =
  prerr_endline
    "usage: ledgerdb_bench --workload notarize|verify|audit|ingest --seed N \
     [--seconds S] [--trace 0|1] [--quick]\n\
    \       ledgerdb_bench --describe [--seconds S] [--quick]";
  exit 2

(* --key value pairs and bare --flags *)
let parse args =
  let rec go acc = function
    | [] -> List.rev acc
    | k :: v :: rest
      when String.length k > 2 && String.sub k 0 2 = "--"
           && not (String.length v > 2 && String.sub v 0 2 = "--") ->
        go ((k, Some v) :: acc) rest
    | k :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((k, None) :: acc) rest
    | _ -> usage ()
  in
  go [] args

let opt args k = Option.join (List.assoc_opt k args)
let flag args k = List.mem_assoc k args

let req args k =
  match opt args k with Some v -> v | None -> usage ()

let int_arg args k ~default =
  match opt args k with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())

let client args =
  let seconds = int_arg args "--seconds" ~default:12 in
  let quick = flag args "--quick" in
  if flag args "--describe" then print_endline (Spec.describe ~seconds ~quick)
  else begin
    let kind =
      match Spec.of_name (req args "--workload") with Some k -> k | None -> usage ()
    in
    let seed = int_arg args "--seed" ~default:(-1) in
    if seed < 0 || seconds < 1 then usage ();
    let trace = int_arg args "--trace" ~default:0 = 1 in
    let o =
      try Run.run ~kind ~seed ~seconds ~trace ~quick with
      | Check.Failed m ->
          prerr_endline ("verification failed: " ^ m);
          { Run.correct = false; attempted = 1; failed = 0; metrics = [] }
    in
    Proc.kill_all ();
    print_endline
      (Stats.result_line ~correct:o.Run.correct ~attempted:o.Run.attempted
         ~failed:o.Run.failed o.Run.metrics);
    if not o.Run.correct then exit 1
  end

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  at_exit Proc.kill_all;
  match argv with
  | "serve" :: rest ->
      let a = parse rest in
      Server.serve ~name:(req a "--name") ~trace_dir:(opt a "--trace-dir")
  | "replay" :: rest ->
      let a = parse rest in
      Replay.replay ~name:(req a "--name") ~frames_path:(req a "--frames")
        ~preload_frames:(int_arg a "--preload-frames" ~default:0)
        ~primary_tag:(int_arg a "--primary-tag" ~default:0)
  | _ ->
      (* exit through [at_exit], which stops the child processes *)
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
        [ Sys.sigterm; Sys.sigint ];
      client (parse argv)
