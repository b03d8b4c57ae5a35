(* [serve] mode: the system under test, set up as [ledgerdb_cli serve]
   sets it up — real ECDSA, derivable members c0..c63, observability on,
   [Service.handle] behind the dispatch lock and [Service.handle_read] on
   the lock-free path.  With a trace directory it also times both
   closures and keeps every request frame for the offline replay. *)

open Ledger_storage
open Ledger_core
open Ledger_net
module Obs = Ledger_obs.Obs
module Json = Ledger_bench_util.Json_out

let make_ledger ~name =
  let clock = Clock.create () in
  let config = { Ledger.default_config with name; crypto = Crypto_profile.Real } in
  let ledger = Ledger.create ~config ~clock () in
  for i = 0 to Spec.members - 1 do
    ignore
      (Ledger.new_member ledger ~name:(Printf.sprintf "c%d" i) ~role:Roles.Regular_user)
  done;
  ledger

(* --- frame log --------------------------------------------------------- *)

(* [u8 class][u32be length][request]; class 0 = mutation (in dispatch
   order), 1 = read *)
let write_frames path frames =
  let oc = open_out_bin path in
  List.iter
    (fun (cls, b) ->
      output_byte oc cls;
      let len = Bytes.create 4 in
      Bytes.set_int32_be len 0 (Int32.of_int (Bytes.length b));
      output_bytes oc len;
      output_bytes oc b)
    frames;
  close_out oc

let read_frames path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_byte ic with
    | exception End_of_file -> List.rev acc
    | cls ->
        let len = Bytes.create 4 in
        really_input ic len 0 4;
        let b = Bytes.create (Int32.to_int (Bytes.get_int32_be len 0)) in
        really_input ic b 0 (Bytes.length b);
        go ((cls, b) :: acc)
  in
  let frames = go [] in
  close_in ic;
  frames

(* --- spans --------------------------------------------------------------- *)

type span = { name : string; tag : int; t0 : float; t1 : float; dom : int }

(* one buffer per domain: each domain only ever touches its own cell *)
let max_domains = 64
let spans = Array.init max_domains (fun _ -> ref [])
let read_log = Array.init max_domains (fun _ -> ref [])
let read_logged = Array.make max_domains 0
let read_log_cap = 20_000

let tag_of req = if Bytes.length req > 0 then Bytes.get_uint8 req 0 else -1

(* a span in the calling domain's buffer; returns the buffer's index *)
let record name req t0 t1 =
  let dom = (Domain.self () :> int) in
  let d = dom mod max_domains in
  spans.(d) := { name; tag = tag_of req; t0; t1; dom } :: !(spans.(d));
  d

(* times as whole microseconds since the epoch, as the client's spans *)
let us t = Json.Int (int_of_float (t *. 1e6))

let span_json s =
  Json.to_string
    (Json.Obj
       [ ("name", Json.Str s.name); ("kind", Json.Str (Spec.kind_of_tag s.tag));
         ("domain", Json.Int s.dom); ("start_us", us s.t0); ("end_us", us s.t1) ])

(* Mean time a request of wire tag [tag] spent in the server's closures
   while the client measured ([lo], [hi]): a mutation pays the read
   path's decode-and-decline before the locked backend. *)
let handler_mean_us path ~tag ~windows =
  let ic = open_in path in
  let sum = ref 0 and n = ref 0 in
  let kind = Spec.kind_of_tag tag in
  (try
     while true do
       Scanf.sscanf (input_line ic)
         "{\"name\":%S,\"kind\":%S,\"domain\":%d,\"start_us\":%d,\"end_us\":%d}"
         (fun name k _ t0 t1 ->
           let t = float_of_int t0 /. 1e6 in
           if k = kind && List.exists (fun (lo, hi) -> t >= lo && t < hi) windows then begin
             sum := !sum + (t1 - t0);
             if name <> "read_declined" then incr n
           end)
     done
   with End_of_file -> ());
  close_in ic;
  float_of_int !sum /. float_of_int (max 1 !n)

let serve ~name ~trace_dir =
  Obs.reset ();
  Obs.enable ();
  let ledger = make_ledger ~name in
  let mutations = ref [] in
  let backend, read =
    match trace_dir with
    | None -> (Service.handle ledger, Service.handle_read ledger)
    | Some _ ->
        let backend req =
          (* runs under the dispatch lock: [mutations] is in commit order *)
          mutations := req :: !mutations;
          let t0 = Unix.gettimeofday () in
          let resp = Service.handle ledger req in
          ignore (record "backend" req t0 (Unix.gettimeofday ()));
          resp
        in
        let read req =
          let t0 = Unix.gettimeofday () in
          let resp = Service.handle_read ledger req in
          let served = Option.is_some resp in
          let d =
            record (if served then "read" else "read_declined") req t0 (Unix.gettimeofday ())
          in
          if served && read_logged.(d) < read_log_cap then begin
            read_logged.(d) <- read_logged.(d) + 1;
            read_log.(d) := req :: !(read_log.(d))
          end;
          resp
        in
        (backend, read)
  in
  let server =
    Net_server.create
      ~config:{ Net_server.default_config with port = 0; workers = Spec.server_workers }
      ~read
      backend
  in
  (* not [Net_server.install_signal_handlers]: OCaml 5 may run a signal
     handler on any domain, and a worker domain running [stop] would wait
     to join itself.  The handler only raises a flag; the main domain
     stops the server. *)
  let stopping = Atomic.make false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stopping true));
  Printf.printf "port %d\n%!" (Net_server.port server);
  (* a client that died without stopping its server orphans it *)
  let parent = Unix.getppid () in
  while not (Atomic.get stopping || Unix.getppid () <> parent) do
    Unix.sleepf 0.02
  done;
  Net_server.stop server;
  let s = Net_server.stats server in
  let stat k v = Printf.printf "%s %.17g\n" k v in
  stat "served" (float_of_int s.Net_server.served);
  stat "read_served" (float_of_int s.Net_server.read_served);
  stat "framing_errors" (float_of_int s.Net_server.framing_errors);
  (match trace_dir with
  | None -> ()
  | Some dir ->
      let all = Array.fold_left (fun acc cell -> List.rev_append !cell acc) [] spans in
      let oc = open_out (Filename.concat dir "spans-server.jsonl") in
      List.iter
        (fun s -> output_string oc (span_json s ^ "\n"))
        (List.sort (fun a b -> Float.compare a.t0 b.t0) all);
      close_out oc;
      let reads = Array.fold_left (fun acc cell -> List.rev_append !cell acc) [] read_log in
      write_frames (Filename.concat dir "frames.bin")
        (List.rev_map (fun b -> (0, b)) !mutations @ List.map (fun b -> (1, b)) reads));
  Obs.disable ();
  flush stdout
