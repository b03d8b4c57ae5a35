(* Every input of a run, derived from the workload and the seed alone:
   ledger name, member keys, the preload and each phase's signed
   requests.  The server never sees anything but these frames. *)

open Ledger_crypto
open Ledger_core
open Ledger_net
module Rng = Ledger_bench_util.Det_rng
module Workload = Ledger_bench_util.Workload

type env = {
  spec : Spec.t;
  seed : int;
  lname : string;  (** ledger name; member and LSP keys derive from it *)
  uri : string;
  lsp_pub : Ecdsa.public_key;
  clients : Service.Client.t array;  (** members c0..c63 *)
}

let env (spec : Spec.t) ~seed =
  let lname = Printf.sprintf "bench-%s-s%d" spec.Spec.name seed in
  let uri = "ledger://" ^ lname in
  let clients =
    Array.init Spec.members (fun i ->
        let name = Printf.sprintf "c%d" i in
        let priv, pub = Ecdsa.generate ~seed:(lname ^ ":" ^ name) in
        let member =
          { Roles.name; role = Roles.Regular_user; pub; id = Ecdsa.public_key_id pub }
        in
        Service.Client.create ~crypto:Crypto_profile.Real ~ledger_uri:uri ~member
          ~priv ())
  in
  { spec; seed; lname; uri; lsp_pub = snd (Ecdsa.generate ~seed:("lsp:" ^ lname));
    clients }

(* The request digests the receipts must carry, re-derived from the
   request exactly as encoded. *)
let digests_of_request uri req =
  let digest (payload, clues, client_ts, nonce) =
    Journal.request_digest ~ledger_uri:uri ~kind_tag:"normal" ~payload ~clues
      ~client_ts ~nonce
  in
  match Service.decode_request req with
  | Some (Service.Append { payload; clues; client_ts; nonce; _ }) ->
      [| digest (payload, clues, client_ts, nonce) |]
  | Some (Service.Append_batch { entries; _ }) ->
      Array.of_list
        (List.map (fun (p, c, ts, n, _) -> digest (p, c, ts, n)) entries)
  | _ -> invalid_arg "Inputs.digests_of_request: not an append"

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* --- preload ----------------------------------------------------------- *)

type preload = {
  frames : bytes array;  (** framed [Append_batch] requests *)
  digests : Hash.t array array;  (** per frame, per entry *)
  clues : string array;  (** clue of every entry, in submission order *)
  account_clues : string array;  (** [Accounts] clues, byte-ordered *)
}

let preload env =
  let rng = Rng.create ~seed:((env.seed * 1_000_003) + 1) in
  let account_clues, clues =
    match env.spec.Spec.preload with
    | Spec.Unique n ->
        ([||], Array.init n (fun i -> Printf.sprintf "pre/s%d/%05d" env.seed i))
    | Spec.Accounts { clues; spread } ->
        let names = Array.init clues (fun k -> Printf.sprintf "acct/%03x/s%d" k env.seed) in
        (* the seed decides which clue gets which count, never the total *)
        let counts = Array.init clues (fun k -> 1 + (k mod spread)) in
        shuffle rng counts;
        let entries =
          Array.concat (Array.to_list (Array.mapi (fun k c -> Array.make c names.(k)) counts))
        in
        shuffle rng entries;
        (names, entries)
  in
  let n = Array.length clues in
  let nframes = (n + Spec.preload_batch - 1) / Spec.preload_batch in
  let reqs =
    Array.init nframes (fun f ->
        let lo = f * Spec.preload_batch in
        let hi = min n (lo + Spec.preload_batch) in
        let client = env.clients.(f mod Spec.members) in
        Service.Client.make_append_batch client
          (List.init (hi - lo) (fun i ->
               (Rng.bytes rng 256, [ clues.(lo + i) ], Int64.of_int (lo + i)))))
  in
  { frames = Array.map Net_framing.encode reqs;
    digests = Array.map (digests_of_request env.uri) reqs;
    clues;
    account_clues }

(* Account clues in Zipf-rank order.  The seed decides which clue holds
   each rank, never how many entries it holds: ranks cycle through the
   entry counts, so the lineage work drawn is the same on every seed. *)
let hot env (pre : preload) =
  let count = Hashtbl.create 256 in
  Array.iter
    (fun c -> Hashtbl.replace count c (1 + Option.value (Hashtbl.find_opt count c) ~default:0))
    pre.clues;
  let a = Array.copy pre.account_clues in
  shuffle (Rng.create ~seed:((env.seed * 1_000_003) + 5)) a;
  let seen = Hashtbl.create 16 in
  let keyed =
    Array.map
      (fun clue ->
        let c = Hashtbl.find count clue in
        let j = Option.value (Hashtbl.find_opt seen c) ~default:0 in
        Hashtbl.replace seen c (j + 1);
        ((j, c), clue))
      a
  in
  Array.stable_sort (fun (x, _) (y, _) -> compare x y) keyed;
  Array.map snd keyed

(* --- workload phases ---------------------------------------------------- *)

type op =
  | Write of { batch : bool; digests : Hash.t array }
  | Proof of int  (** jsn *)
  | Clue of string
  | Scan of string  (** clue prefix *)

type item = {
  op : op;
  frame : bytes;  (** first request frame, framed *)
  primary : bool;  (** counted in [e2e.p50_ms]/[e2e.tail_ms]/[e2e.capacity_ops_s] *)
  due : float;  (** open loop: offset from phase start, s; closed: 0 *)
  build_us : float;  (** wall time spent building and signing it *)
}

let is_write i = match i.op with Write _ -> true | _ -> false

(* op class, for the client cost (see [Spec.mix]) *)
let class_of i =
  match i.op with
  | Write { batch = true; _ } -> "append_batch"
  | Write _ -> "append"
  | Proof _ -> "proof"
  | Clue _ -> "lineage"
  | Scan p -> Printf.sprintf "scan%d" (String.length p - String.length "acct/")

(* The warm-up, or the open-loop or the closed-loop window of round [r]. *)
type phase = Warm | Open of int | Capacity of int

let phase_index = function Warm -> 0 | Open r -> 1 + (2 * r) | Capacity r -> 2 + (2 * r)

let phase_name = function
  | Warm -> "warm"
  | Open r -> Printf.sprintf "open%d" r
  | Capacity r -> Printf.sprintf "cap%d" r

let scan_prefixes account_clues =
  let uniq l = List.sort_uniq String.compare l in
  let sub k = List.map (fun c -> String.sub c 0 k) (Array.to_list account_clues) in
  (* "acct/" is 5 bytes: one hex digit -> 6, two -> 7 *)
  (Array.of_list (uniq (sub 6)), Array.of_list (uniq (sub 7)))

let scan_frame prefix =
  Net_framing.encode
    (Service.Client.make_query_page ~spec:(Ledger_query.Range_query.Prefix prefix)
       ~page_size:Spec.page_size ())

(* One phase's requests, signed right before it runs, so that the
   client's own time samples the whole run.  Each phase draws from its
   own random stream: a round's requests do not depend on when the
   others were built.  [jsns]: preloaded journals; [hot]: account clues
   in Zipf-rank order. *)
let phase env ~(pre : preload) ~jsns ~hot phase =
  let spec = env.spec in
  let rng = Rng.create ~seed:((env.seed * 1_000_003) + 16 + phase_index phase) in
  let tag = phase_name phase in
  let seq = ref 0 in
  let next_ts () = incr seq; Int64.of_int !seq in
  let client () = env.clients.(Rng.int rng Spec.members) in
  let append ~clue ~size =
    let req =
      Service.Client.make_append (client ()) ~clues:[ clue ] ~client_ts:(next_ts ())
        (Rng.bytes rng size)
    in
    (Write { batch = false; digests = digests_of_request env.uri req },
     Net_framing.encode req)
  in
  let item ?(due = 0.) ~primary (op, frame) = { op; frame; primary; due; build_us = 0. } in
  let timed build =
    let t0 = Unix.gettimeofday () in
    let it = build () in
    { it with build_us = (Unix.gettimeofday () -. t0) *. 1e6 }
  in
  let closed = match phase with Capacity _ -> true | Warm | Open _ -> false in
  let duration =
    match phase with
    | Warm -> spec.Spec.warm_s
    | Open _ | Capacity _ -> spec.Spec.open_s /. float_of_int spec.Spec.rounds
  in
  (* open loop: evenly spaced arrivals over the window, in whole blocks
     of the workload's mix; closed loop: a round's share of the ops *)
  let count ?block rate =
    if closed then spec.Spec.capacity_ops / spec.Spec.rounds
    else Spec.arrivals ?block ~rate duration
  in
  let due_of rate i = if closed then 0. else float_of_int i /. rate in
  match spec.Spec.kind with
  | Spec.Notarize ->
      Array.init (count spec.Spec.rate) (fun i ->
          timed (fun () ->
              item ~due:(due_of spec.Spec.rate i) ~primary:true
                (append ~clue:(Printf.sprintf "nid/s%d/%s-%d" env.seed tag i) ~size:1024)))
  | Spec.Ingest ->
      let zipf = Workload.zipf ~n:128 ~s:1.1 in
      Array.init (count spec.Spec.rate) (fun i ->
          timed (fun () ->
              let entries =
                List.init Spec.ingest_entries (fun _ ->
                    let clue =
                      Printf.sprintf "ing/s%d/%03d" env.seed (Workload.zipf_draw zipf rng)
                    in
                    (Rng.bytes rng 256, [ clue ], next_ts ()))
              in
              let req = Service.Client.make_append_batch (client ()) entries in
              item ~due:(due_of spec.Spec.rate i) ~primary:true
                (Write { batch = true; digests = digests_of_request env.uri req },
                 Net_framing.encode req)))
  | Spec.Verify ->
      (* exact 14/5/1 proof/lineage/append blocks of 20, order shuffled *)
      let zipf = Workload.zipf ~n:(Array.length hot) ~s:1.1 in
      let block = Array.init 20 (fun k -> if k < 14 then `P else if k < 19 then `C else `A) in
      Array.init (count ~block:20 spec.Spec.rate) (fun i ->
          if i mod 20 = 0 then shuffle rng block;
          let due = due_of spec.Spec.rate i in
          timed @@ fun () ->
          match block.(i mod 20) with
          | `P ->
              let jsn = jsns.(Rng.int rng (Array.length jsns)) in
              item ~due ~primary:true
                (Proof jsn,
                 Net_framing.encode (Service.Client.make_get_proof_bundle ~jsn))
          | `C ->
              let clue = hot.(Workload.zipf_draw zipf rng) in
              item ~due ~primary:true
                (Clue clue,
                 Net_framing.encode (Service.Client.make_get_clue_bundle ~clue ()))
          | `A ->
              item ~due ~primary:false
                (append ~clue:(Printf.sprintf "w/s%d/%s-%d" env.seed tag i) ~size:256))
  | Spec.Audit ->
      let one, two = scan_prefixes pre.account_clues in
      (* exactly one 1-digit scan in every block of four: a 1-digit
         prefix spans sixteen times the rows of a 2-digit one, so a drawn
         mix would move every metric from one seed to the next *)
      let wide = ref 0 in
      let scan i =
        if i mod 4 = 0 then wide := Rng.int rng 4;
        let p = if i mod 4 = !wide then Rng.pick rng one else Rng.pick rng two in
        (Scan p, scan_frame p)
      in
      let bg i =
        append ~clue:(Printf.sprintf "bg/s%d/%02d" env.seed (i mod 16)) ~size:256
      in
      if closed then begin
        (* two auditors back to back; one background append per 10 scans *)
        let out = ref [] in
        for i = 0 to count spec.Spec.rate - 1 do
          out := timed (fun () -> item ~primary:true (scan i)) :: !out;
          if i mod 10 = 9 then out := timed (fun () -> item ~primary:false (bg i)) :: !out
        done;
        Array.of_list (List.rev !out)
      end
      else begin
        let scans =
          Array.init (count ~block:4 spec.Spec.rate) (fun i ->
              timed (fun () -> item ~due:(due_of spec.Spec.rate i) ~primary:true (scan i)))
        in
        let bgs =
          Array.init (count spec.Spec.bg_rate) (fun i ->
              timed (fun () ->
                  item ~due:(due_of spec.Spec.bg_rate i +. (0.5 /. spec.Spec.bg_rate))
                    ~primary:false (bg i)))
        in
        let all = Array.append scans bgs in
        Array.stable_sort (fun a b -> Float.compare a.due b.due) all;
        all
      end
