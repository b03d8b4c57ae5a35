(* Sharded fleet scaling: throughput and proof size, 1 -> 16 shards.

   The fleet runs on forked simulated clocks — appends charge only the
   owning shard, and the epoch seal is the barrier that advances every
   clock to the fleet maximum — so fleet makespan is the slowest shard's
   time.  With a clue-per-entry workload the router spreads entries
   near-uniformly and per-entry commit cost must be non-increasing as
   the fleet widens; the bench fails loudly if it is not (that is the
   acceptance shape for the machine-readable output).  The proof-size
   column shows the price of the second hop: a cross-shard proof is the
   shard-local fam proof plus a log2(N) shard-inclusion path to the
   epoch super-root.  Beside each simulated figure, [wall_us_total] and
   [wall_us_per_entry] report the same run's wall time on the host
   (ungated, host-dependent). *)

open Ledger_storage
open Ledger_core
open Ledger_bench_util
module SL = Ledger_shard.Sharded_ledger

let shard_counts = [ 1; 2; 4; 8; 16 ]

let payload_of i = Bytes.of_string (Printf.sprintf "shard-bench-payload-%06d" i)

(* Commit [entries] journals routed across [shards] shards (one clue per
   entry so the router has something to spread), seal the epoch, and
   read the fleet makespan off the synchronized clock, and the wall time
   of the same appends and seal off the host's. *)
let measure_fleet ~entries shards =
  let clock = Clock.create () in
  let config =
    {
      SL.base =
        { Ledger.default_config with name = Printf.sprintf "bs-%d" shards;
          block_size = 16; fam_delta = 10;
          crypto = Crypto_profile.default_simulated };
      shards;
    }
  in
  let fleet = SL.create ~config ~clock () in
  let member, priv =
    SL.new_member fleet ~name:"bclient" ~role:Roles.Regular_user
  in
  let t0 = Clock.now clock in
  let wall0 = Unix.gettimeofday () in
  let i = ref 0 in
  while !i < entries do
    let n = min 16 (entries - !i) in
    let batch =
      List.init n (fun j ->
          (payload_of (!i + j), [ "ck" ^ string_of_int (!i + j) ]))
    in
    ignore (SL.append_batch fleet ~member ~priv ~seal:false batch);
    i := !i + n
  done;
  let sealed =
    match SL.seal_epoch fleet with
    | Ok s -> s
    | Error msg -> failwith ("bench_shard: epoch seal refused: " ^ msg)
  in
  let wall_us = (Unix.gettimeofday () -. wall0) *. 1e6 in
  let total_us = Int64.to_float (Int64.sub (Clock.now clock) t0) in
  (* cross-shard proof size, measured on the wire encoding; sanity-check
     that it actually verifies against the sealed super-root *)
  let proof_shard =
    let rec first s =
      if s >= shards then failwith "bench_shard: empty fleet"
      else if Ledger.size (SL.shard fleet s) > 0 then s
      else first (s + 1)
    in
    first 0
  in
  let proof =
    match SL.prove fleet ~shard:proof_shard ~jsn:0 with
    | Ok p -> p
    | Error msg -> failwith ("bench_shard: prove refused: " ^ msg)
  in
  let super = Ledger_shard.Super_root.commitment sealed in
  if not (SL.verify_proof fleet ~super proof) then
    failwith "bench_shard: cross-shard proof does not verify";
  let proof_bytes = Bytes.length (SL.encode_sharded_proof proof) in
  let max_shard =
    List.fold_left
      (fun acc s -> max acc (Ledger.size (SL.shard fleet s)))
      0
      (List.init shards Fun.id)
  in
  ( total_us,
    total_us /. float_of_int entries,
    proof_bytes,
    max_shard,
    wall_us )

let run ?(smoke = false) ?json () =
  let entries = if smoke then 128 else 512 in
  Table.print_title
    (Printf.sprintf
       "Sharded fleet scaling (%d journals, epoch super-root, simulated clock)"
       entries);
  let results =
    List.map (fun n -> (n, measure_fleet ~entries n)) shard_counts
  in
  Table.print_table
    ~header:
      [ "shards"; "makespan (ms)"; "per entry (us)"; "wall/entry (us)";
        "proof (B)"; "max shard" ]
    (List.map
       (fun (n, (total_us, per_entry_us, proof_bytes, max_shard, wall_us)) ->
         [
           string_of_int n;
           Table.human_ms (total_us /. 1000.);
           Printf.sprintf "%.1f" per_entry_us;
           Printf.sprintf "%.1f" (wall_us /. float_of_int entries);
           string_of_int proof_bytes;
           string_of_int max_shard;
         ])
       results);
  (* the acceptance shape: widening the fleet must not cost more per entry *)
  ignore
    (List.fold_left
       (fun prev (n, (_, per_entry_us, _, _, _)) ->
         (match prev with
         | Some (pn, prev_us) when per_entry_us > prev_us ->
             failwith
               (Printf.sprintf
                  "bench_shard: per-entry cost increasing (s%d %.1fus > s%d \
                   %.1fus)"
                  n per_entry_us pn prev_us)
         | _ -> ());
         Some (n, per_entry_us))
       None results);
  (match json with
  | None -> ()
  | Some path ->
      let open Json_out in
      let fleet_obj
          (n, (total_us, per_entry_us, proof_bytes, max_shard, wall_us)) =
        ( "s" ^ string_of_int n,
          Obj
            [
              ("shards", Int n);
              ("total_us", Float total_us);
              ("wall_us_total", Float wall_us);
              ("per_entry_us", Float per_entry_us);
              ("wall_us_per_entry", Float (wall_us /. float_of_int entries));
              ("proof_bytes", Int proof_bytes);
              ("max_shard_journals", Int max_shard);
            ] )
      in
      write_file path
        (Obj
           [
             ("figure", Str "shard");
             ("entries", Int entries);
             ("fleets", Obj (List.map fleet_obj results));
           ]);
      Printf.printf "wrote %s\n" path)
