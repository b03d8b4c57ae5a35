(* Child processes: the server under test and the offline replay.  Both
   are this executable re-run in another mode, started with
   [Unix.create_process] (OCaml 5 refuses [fork] once a domain exists)
   and always reaped before the run exits. *)

type child = { pid : int; out : Unix.file_descr; buf : Buffer.t; mutable reaped : bool }

let live : child list ref = ref []

let spawn args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let c = { pid; out = r; buf = Buffer.create 4096; reaped = false } in
  live := c :: !live;
  c

(* Read the child's stdout until [stop line] holds or EOF; [None] on
   timeout or EOF. *)
let read_until ?(timeout = 60.) c stop =
  let deadline = Unix.gettimeofday () +. timeout in
  let chunk = Bytes.create 4096 in
  let rec scan () =
    let s = Buffer.contents c.buf in
    match String.index_opt s '\n' with
    | Some i ->
        let line = String.sub s 0 i in
        Buffer.clear c.buf;
        Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
        if stop line then Some line else scan ()
    | None -> (
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then None
        else
          match Unix.select [ c.out ] [] [] left with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> scan ()
          | [], _, _ -> None
          | _ -> (
              match Unix.read c.out chunk 0 (Bytes.length chunk) with
              | 0 -> None
              | k ->
                  Buffer.add_subbytes c.buf chunk 0 k;
                  scan ()))
  in
  scan ()

(* All remaining [key value] lines up to EOF. *)
let read_stats ?timeout c =
  let acc = ref [] in
  let _ =
    read_until ?timeout c (fun line ->
        (match String.split_on_char ' ' line with
        | [ k; v ] -> (
            match float_of_string_opt v with
            | Some f -> acc := (k, f) :: !acc
            | None -> ())
        | _ -> ());
        false)
  in
  List.rev !acc

let reap c =
  if not c.reaped then begin
    c.reaped <- true;
    live := List.filter (fun x -> x != c) !live;
    (try Unix.close c.out with Unix.Unix_error _ -> ());
    let rec wait () =
      match Unix.waitpid [] c.pid with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error _ -> ()
      | _ -> ()
    in
    wait ()
  end

(* SIGTERM, collect the closing stats, reap; SIGKILL if it hangs. *)
let stop ?(timeout = 60.) c =
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let stats = read_stats ~timeout c in
  (* EOF means it exited; still running means it hung *)
  (match Unix.waitpid [ Unix.WNOHANG ] c.pid with
  | 0, _ -> ( try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ())
  | _ | (exception Unix.Unix_error _) -> ());
  reap c;
  stats

let kill_all () =
  List.iter
    (fun c ->
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap c)
    !live

(* Peak resident set of a live process, MiB. *)
let vm_hwm_mb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> Float.nan
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> Float.nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              match
                List.filter (( <> ) "")
                  (String.split_on_char ' '
                     (String.map (fun c -> if c = '\t' then ' ' else c) line))
              with
              | _ :: kb :: _ -> float_of_string kb /. 1024.
              | _ -> Float.nan
            else go ()
      in
      let v = go () in
      close_in ic;
      v
