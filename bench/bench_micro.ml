(* Bechamel microbenchmarks: one Test.make per table/figure family,
   measuring the hot primitive under each experiment. *)

open Bechamel
open Toolkit
open Ledger_crypto
open Ledger_merkle
open Ledger_cmtree
open Ledger_baselines
open Ledger_storage

let leaf i = Hash.digest_string ("leaf" ^ string_of_int i)

let test_fig7_ecdsa_verify =
  (* Fig. 7 who factor: one real signature verification *)
  let priv, pub = Ecdsa.generate ~seed:"bench" in
  let digest = Hash.digest_string "bench message" in
  let signature = Ecdsa.sign priv digest in
  Test.make ~name:"fig7/ecdsa-verify"
    (Staged.stage (fun () -> assert (Ecdsa.verify pub digest signature)))

let test_fig7_ecdsa_verify_ref =
  (* same verification through the retained pre-kernel pipeline; the
     fast/ref ratio is the kernel's speedup and is gated in [run] *)
  let priv, pub = Ecdsa.generate ~seed:"bench" in
  let digest = Hash.digest_string "bench message" in
  let signature = Ecdsa.sign priv digest in
  Test.make ~name:"fig7/ecdsa-verify-ref"
    (Staged.stage (fun () -> assert (Ecdsa_ref.verify pub digest signature)))

let test_fig7_ecdsa_sign =
  (* the π_s / π_c signing primitive: k·G over the fixed-base comb *)
  let priv, _ = Ecdsa.generate ~seed:"bench" in
  let digest = Hash.digest_string "bench message" in
  Test.make ~name:"fig7/ecdsa-sign"
    (Staged.stage (fun () -> ignore (Ecdsa.sign priv digest)))

let test_fig7_ecdsa_sign_ref =
  let priv, _ = Ecdsa.generate ~seed:"bench" in
  let digest = Hash.digest_string "bench message" in
  Test.make ~name:"fig7/ecdsa-sign-ref"
    (Staged.stage (fun () -> ignore (Ecdsa_ref.sign priv digest)))

let test_fig8_fam_append =
  let fam = Fam.create ~delta:15 in
  let i = ref 0 in
  Test.make ~name:"fig8a/fam15-append"
    (Staged.stage (fun () ->
         incr i;
         ignore (Fam.append fam (leaf !i));
         ignore (Fam.commitment fam)))

let test_fig8_tim_append =
  let acc = Accumulator.create () in
  let i = ref 0 in
  Test.make ~name:"fig8a/tim-append"
    (Staged.stage (fun () ->
         incr i;
         ignore (Accumulator.append acc (leaf !i));
         ignore (Accumulator.root acc)))

let test_fig8_fam_getproof =
  let fam = Fam.create ~delta:8 in
  for i = 0 to (1 lsl 12) - 1 do
    ignore (Fam.append fam (leaf i))
  done;
  let anchor = Fam.make_anchor fam in
  let commitment = Fam.commitment fam in
  let i = ref 0 in
  Test.make ~name:"fig8b/fam-aoa-getproof"
    (Staged.stage (fun () ->
         i := (!i + 997) land ((1 lsl 12) - 1);
         let p = Fam.prove_anchored fam anchor !i in
         assert (
           Fam.verify_anchored anchor ~current_commitment:commitment
             ~leaf:(leaf !i) p)))

let test_fig9_cmtree_verify =
  let cm = Cm_tree.create () in
  for i = 0 to 49 do
    ignore (Cm_tree.insert cm ~clue:"target" (leaf i))
  done;
  for i = 50 to 1000 do
    ignore (Cm_tree.insert cm ~clue:(Printf.sprintf "bg%d" (i mod 97)) (leaf i))
  done;
  let known = List.init 50 (fun v -> (v, leaf v)) in
  Test.make ~name:"fig9/cmtree-verify-50"
    (Staged.stage (fun () ->
         let proof = Option.get (Cm_tree.prove_clue cm ~clue:"target" ()) in
         assert (Cm_tree.verify_clue ~root:(Cm_tree.root_hash cm) ~known proof)))

let test_table2_qldb_verify =
  let clock = Clock.create () in
  let qldb = Qldb_sim.create ~clock () in
  Qldb_sim.preload qldb (1 lsl 16);
  Qldb_sim.insert qldb ~id:"doc" (Bytes.make 1024 'x');
  Test.make ~name:"table2/qldb-getrevision"
    (Staged.stage (fun () -> assert (Qldb_sim.verify qldb ~id:"doc")))

let test_fig10_fabric_submit =
  let clock = Clock.create () in
  let fab = Fabric_sim.create ~clock () in
  let i = ref 0 in
  Test.make ~name:"fig10/fabric-submit"
    (Staged.stage (fun () ->
         incr i;
         Fabric_sim.submit fab ~key:(string_of_int !i) (Bytes.make 256 'y')))

let test_fig5_tsa_endorse =
  let clock = Clock.create () in
  let tsa = Ledger_timenotary.Tsa.create ~endorse_rtt_ms:0. ~clock "bench" in
  let digest = Hash.digest_string "anchor" in
  Test.make ~name:"fig5/tsa-endorse"
    (Staged.stage (fun () -> ignore (Ledger_timenotary.Tsa.endorse tsa digest)))

let tests =
  Test.make_grouped ~name:"ledgerdb" ~fmt:"%s %s"
    [
      test_fig5_tsa_endorse;
      test_fig7_ecdsa_verify;
      test_fig7_ecdsa_verify_ref;
      test_fig7_ecdsa_sign;
      test_fig7_ecdsa_sign_ref;
      test_fig8_fam_append;
      test_fig8_tim_append;
      test_fig8_fam_getproof;
      test_fig9_cmtree_verify;
      test_fig10_fabric_submit;
      test_table2_qldb_verify;
    ]

let benchmark ~smoke () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if smoke then
      (* fixed small budget: enough samples for OLS, fast enough to ride
         inside dune runtest *)
      Benchmark.cfg ~limit:50 ~quota:(Time.second 0.05) ~kde:None ()
    else Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

(* ns-per-run OLS estimate for every test under the monotonic clock. *)
let estimates results =
  match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
  | None -> []
  | Some per_test ->
      Hashtbl.fold
        (fun name ols acc ->
          let ns =
            match Analyze.OLS.estimates ols with
            | Some (ns :: _) -> Some ns
            | Some [] | None -> None
          in
          (name, ns) :: acc)
        per_test []
      |> List.sort compare

(* Wall ns per call of [f] over a block of at least [budget] seconds. *)
let block_ns ~budget f =
  let t0 = Unix.gettimeofday () in
  let calls = ref 0 in
  while Unix.gettimeofday () -. t0 < budget || !calls = 0 do
    f ();
    incr calls
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int !calls

(* Median over [rounds] of ref/fast, each round timing both back to back
   (fast first in even rounds, ref first in odd ones). *)
let alternating_speedup ~rounds ~budget fast ref_ =
  let ratios =
    List.init rounds (fun i ->
        if i mod 2 = 0 then
          let f = block_ns ~budget fast in
          block_ns ~budget ref_ /. f
        else
          let r = block_ns ~budget ref_ in
          r /. block_ns ~budget fast)
  in
  List.nth (List.sort compare ratios) (rounds / 2)

let run ?(smoke = false) ?json () =
  print_endline "\nBechamel microbenchmarks (ns per run)";
  print_endline "=====================================";
  Bechamel_notty.Unit.add Instance.monotonic_clock "ns";
  let results = benchmark ~smoke () in
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
  in
  Notty_unix.eol img |> Notty_unix.output_image;
  let ests = estimates results in
  let rounds = if smoke then 5 else 9 in
  let budget = if smoke then 0.02 else 0.2 in
  let verify_speedup =
    let priv, pub = Ecdsa.generate ~seed:"bench" in
    let digest = Hash.digest_string "bench message" in
    let signature = Ecdsa.sign priv digest in
    alternating_speedup ~rounds ~budget
      (fun () -> assert (Ecdsa.verify pub digest signature))
      (fun () -> assert (Ecdsa_ref.verify pub digest signature))
  in
  let sign_speedup =
    let priv, _ = Ecdsa.generate ~seed:"bench" in
    let digest = Hash.digest_string "bench message" in
    alternating_speedup ~rounds ~budget
      (fun () -> ignore (Ecdsa.sign priv digest))
      (fun () -> ignore (Ecdsa_ref.sign priv digest))
  in
  (* Minor-heap words per item of sign_many and verify_many over 256
     items; reported here, bounded by test_crypto_props *)
  let sign_minor_words, verify_minor_words, _ =
    Ecdsa_ref.minor_words_per_item ~seed:"bench" 256
  in
  (* One SHA-3 clue scatter (paper §IV-B2), run two or three times per
     committed entry: wall ns per call, and minor-heap words of one call
     (bounded by test_crypto_props) *)
  let clue = "acct/00001234" in
  let scatter_ns = block_ns ~budget (fun () -> ignore (Hash.scatter clue)) in
  let scatter_minor_words =
    let before = Gc.minor_words () in
    ignore (Hash.scatter clue);
    Gc.minor_words () -. before
  in
  Printf.printf "clue scatter: %.0f ns, %.0f minor words\n" scatter_ns
    scatter_minor_words;
  Printf.printf "ecdsa sign speedup (ref/fast, median of %d rounds): %.1fx\n"
    rounds sign_speedup;
  Printf.printf "ecdsa verify speedup (ref/fast, median of %d rounds): %.1fx\n"
    rounds verify_speedup;
  Printf.printf "ecdsa minor words per item: sign %.0f, verify %.0f\n"
    sign_minor_words verify_minor_words;
  (* Speedup gate: the kernel must keep ECDSA verification at least 10x
     faster than the reference pipeline (3x in smoke runs, whose short
     rounds are noisier) — enough to catch an accidental fallback to the
     slow path.  Each round times fast and ref back to back, and the
     gate reads the median round, so a burst of load from a concurrent
     build cannot fail it alone.  The sign speedup is reported, not
     gated. *)
  let floor = if smoke then 3.0 else 10.0 in
  if verify_speedup < floor then
    failwith
      (Printf.sprintf "bench_micro: ecdsa verify speedup %.1fx below the %.0fx gate"
         verify_speedup floor);
  match json with
  | None -> ()
  | Some path ->
      let open Ledger_bench_util.Json_out in
      let tests =
        List.map
          (fun (name, ns) ->
            (name, match ns with Some v -> Float v | None -> Null))
          ests
      in
      write_file path
        (Obj
           [
             ("figure", Str "micro");
             ("unit", Str "ns_per_run");
             ("smoke", Bool smoke);
             ("verify_speedup", Float verify_speedup);
             ("sign_speedup", Float sign_speedup);
             ("sign_minor_words", Float sign_minor_words);
             ("verify_minor_words", Float verify_minor_words);
             ("scatter_ns", Float scatter_ns);
             ("scatter_minor_words", Float scatter_minor_words);
             ("tests", Obj tests);
           ]);
      Printf.printf "wrote %s\n" path
