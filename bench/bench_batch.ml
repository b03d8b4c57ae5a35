(* Batched commit amortization.

   Everything gated here is measured on the simulated clock, so the
   numbers are deterministic: a batch of k entries pays one network
   charge and one storage round instead of k, so the per-entry commit
   cost must be strictly decreasing in k — the bench fails loudly if it
   is not (that is the acceptance shape for the machine-readable
   output).  Beside each simulated per-entry cost, [wall_us_per_entry]
   reports the same run's wall time on the host (ungated,
   host-dependent), and [resident_bytes_per_entry] the growth of
   everything reachable from the ledger per committed entry: a count of
   heap words, not a time, so it repeats exactly for fixed inputs. *)

open Ledger_storage
open Ledger_core
open Ledger_bench_util

let batch_sizes = [ 1; 4; 16; 64 ]

let build_ledger name =
  let clock = Clock.create () in
  let config =
    { Ledger.default_config with name; block_size = 16; fam_delta = 10;
      crypto = Crypto_profile.default_simulated }
  in
  let ledger = Ledger.create ~config ~clock () in
  let member, priv =
    Ledger.new_member ledger ~name:"bclient" ~role:Roles.Regular_user
  in
  (clock, ledger, member, priv)

let payload_of i = Bytes.of_string (Printf.sprintf "batch-bench-payload-%06d" i)

let reachable_bytes v = Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8)

(* Commit [entries] journals in batches of [k]; simulated µs per entry,
   wall-clock µs per entry on the host running the bench, and resident
   bytes per entry. *)
let measure_batch ~entries k =
  let clock, ledger, member, priv = build_ledger (Printf.sprintf "bb-%d" k) in
  let resident0 = reachable_bytes ledger in
  let t0 = Clock.now clock in
  let wall0 = Unix.gettimeofday () in
  let i = ref 0 in
  while !i < entries do
    let n = min k (entries - !i) in
    let batch =
      List.init n (fun j ->
          (payload_of (!i + j), [ "bk" ^ string_of_int ((!i + j) mod 4) ]))
    in
    ignore (Ledger.append_batch ledger ~member ~priv ~seal:false batch);
    i := !i + n
  done;
  Ledger.seal_block ledger;
  let wall_us = (Unix.gettimeofday () -. wall0) *. 1e6 in
  let total_us = Int64.to_float (Int64.sub (Clock.now clock) t0) in
  let resident = reachable_bytes ledger - resident0 in
  let per_entry x = x /. float_of_int entries in
  ( total_us,
    per_entry total_us,
    per_entry wall_us,
    per_entry (float_of_int resident) )

let run ?(smoke = false) ?json () =
  let entries = if smoke then 128 else 512 in
  Table.print_title
    (Printf.sprintf
       "Batched commit amortization (%d journals, simulated clock)" entries)
  ;
  let results = List.map (fun k -> (k, measure_batch ~entries k)) batch_sizes in
  Table.print_table
    ~header:
      [ "batch"; "total (ms)"; "per entry (us)"; "wall per entry (us)";
        "resident per entry (B)" ]
    (List.map
       (fun (k, (total_us, per_entry_us, wall_us_per_entry, resident)) ->
         [
           string_of_int k;
           Table.human_ms (total_us /. 1000.);
           Printf.sprintf "%.1f" per_entry_us;
           Printf.sprintf "%.1f" wall_us_per_entry;
           Printf.sprintf "%.0f" resident;
         ])
       results);
  (* the acceptance shape: amortization must actually amortize *)
  ignore
    (List.fold_left
       (fun prev (k, (_, per_entry_us, _, _)) ->
         (match prev with
         | Some (pk, prev_us) when per_entry_us >= prev_us ->
             failwith
               (Printf.sprintf
                  "bench_batch: per-entry cost not decreasing (b%d %.1fus >= b%d %.1fus)"
                  k per_entry_us pk prev_us)
         | _ -> ());
         Some (k, per_entry_us))
       None results);
  (match json with
  | None -> ()
  | Some path ->
      let open Json_out in
      let size_obj
          (k, (total_us, per_entry_us, wall_us_per_entry, resident)) =
        ( "b" ^ string_of_int k,
          Obj
            [
              ("batch", Int k);
              ("total_us", Float total_us);
              ("per_entry_us", Float per_entry_us);
              ("wall_us_per_entry", Float wall_us_per_entry);
              ("resident_bytes_per_entry", Float resident);
            ] )
      in
      write_file path
        (Obj
           [
             ("figure", Str "batch");
             ("entries", Int entries);
             ("sizes", Obj (List.map size_obj results));
           ]);
      Printf.printf "wrote %s\n" path)
