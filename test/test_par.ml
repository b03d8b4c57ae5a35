(* Domain pool unit coverage + pooled-vs-sequential differential gates.

   The pool's contract is determinism by construction: every primitive
   writes only indexed result slots, so a pool of any size must produce
   byte-identical results to inline execution.  The differential tests
   here pin that all the way up the stack — pooled [Fam.append_many],
   [Ledger.append_batch], [Ledger.append_signed_batch] and
   [Sharded_ledger.append_batch]/[seal_epoch] against the sequential
   path, down to encoded journals, receipts, blocks and super-roots.

   The container may have a single core; every test that needs real
   parallelism creates an explicit [~domains:4] pool (spawning more
   domains than cores is legal, just oversubscribed). *)

open Ledger_crypto
open Ledger_storage
open Ledger_merkle
open Ledger_core
open Ledger_par

let tc = Alcotest.test_case

let with_pool ?(domains = 4) f =
  let pool = Domain_pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) (fun () -> f pool)

(* --- Domain_pool unit tests ------------------------------------------------ *)

let test_pool_of_one_is_inline () =
  let pool = Domain_pool.create ~domains:1 () in
  Alcotest.(check int) "size 1" 1 (Domain_pool.size pool);
  let arr = Array.init 100 string_of_int in
  Alcotest.(check (array string))
    "map_array matches sequential"
    (Domain_pool.map_array Domain_pool.sequential String.uppercase_ascii arr)
    (Domain_pool.map_array pool String.uppercase_ascii arr);
  (* a 1-domain pool never spawned, so shutdown has nothing to join *)
  Domain_pool.shutdown pool;
  Alcotest.(check int) "sequential size" 1
    (Domain_pool.size Domain_pool.sequential)

let test_create_clamps () =
  List.iter
    (fun d ->
      let pool = Domain_pool.create ~domains:d () in
      Alcotest.(check int)
        (Printf.sprintf "domains:%d clamps to 1" d)
        1 (Domain_pool.size pool);
      Domain_pool.shutdown pool)
    [ 0; -7 ]

let test_empty_and_singleton () =
  with_pool (fun pool ->
      let called = ref false in
      Domain_pool.map_chunks pool ~n:0 (fun ~lo:_ ~hi:_ -> called := true);
      Alcotest.(check bool) "n=0 never runs a chunk" false !called;
      Alcotest.(check (array int)) "empty array" [||]
        (Domain_pool.map_array pool succ [||]);
      Alcotest.(check (list int)) "empty list" []
        (Domain_pool.map_list pool succ []);
      Alcotest.(check (list int)) "singleton list" [ 42 ]
        (Domain_pool.map_list pool succ [ 41 ]))

let test_more_domains_than_items () =
  (* 4 domains, 2 items: chunking must never duplicate or drop an index *)
  with_pool (fun pool ->
      let n = 2 in
      let counts = Array.init n (fun _ -> Atomic.make 0) in
      Domain_pool.parallel_for pool ~n (fun i -> Atomic.incr counts.(i));
      Array.iteri
        (fun i c ->
          Alcotest.(check int)
            (Printf.sprintf "index %d visited exactly once" i)
            1 (Atomic.get c))
        counts;
      Alcotest.(check (array int)) "2-item map" [| 10; 11 |]
        (Domain_pool.map_array pool (fun x -> x + 10) [| 0; 1 |]))

let test_large_map_deterministic () =
  with_pool (fun pool ->
      let arr = Array.init 5_000 (fun i -> Printf.sprintf "leaf-%d" i) in
      let seq = Domain_pool.map_array Domain_pool.sequential Hash.digest_string arr in
      let par = Domain_pool.map_array pool Hash.digest_string arr in
      Alcotest.(check int) "lengths" (Array.length seq) (Array.length par);
      Array.iteri
        (fun i h ->
          if not (Hash.equal h par.(i)) then
            Alcotest.failf "slot %d diverged between pool sizes" i)
        seq)

let test_exception_cancels_and_reraises () =
  with_pool (fun pool ->
      let started = Atomic.make 0 in
      (try
         Domain_pool.parallel_for pool ~n:64 (fun i ->
             Atomic.incr started;
             if i = 13 then failwith "boom");
         Alcotest.fail "exception was swallowed"
       with Failure msg -> Alcotest.(check string) "re-raised" "boom" msg);
      Alcotest.(check bool) "some work ran before the cancel" true
        (Atomic.get started >= 1 && Atomic.get started <= 64);
      (* the failed job fully drained: the pool is still usable *)
      Alcotest.(check (array int)) "pool survives a failed job"
        [| 0; 2; 4 |]
        (Domain_pool.map_array pool (fun x -> 2 * x) [| 0; 1; 2 |]))

let test_nested_use_runs_inline () =
  with_pool (fun pool ->
      let out = Array.make 8 0 in
      (* each outer task re-enters the pool; the inner call must run
         inline on the worker domain instead of deadlocking the queue *)
      Domain_pool.parallel_for pool ~n:8 (fun i ->
          let inner =
            Domain_pool.map_array pool (fun x -> x * x) [| i; i + 1 |]
          in
          out.(i) <- inner.(0) + inner.(1));
      Array.iteri
        (fun i got ->
          Alcotest.(check int)
            (Printf.sprintf "nested result %d" i)
            ((i * i) + ((i + 1) * (i + 1)))
            got)
        out)

let test_env_domain_parsing () =
  let check_env v expect =
    Unix.putenv "LEDGERDB_DOMAINS" v;
    Alcotest.(check (option int))
      (Printf.sprintf "LEDGERDB_DOMAINS=%S" v)
      expect (Domain_pool.env_domains ())
  in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "LEDGERDB_DOMAINS" "")
    (fun () ->
      check_env "4" (Some 4);
      check_env " 8 " (Some 8);
      check_env "1" (Some 1);
      (* the env knob must never brick the process: fall back *)
      check_env "0" None;
      check_env "-2" None;
      check_env "three" None;
      check_env "" None)

let test_set_default () =
  Domain_pool.set_default Domain_pool.sequential;
  Alcotest.(check int) "default replaced" 1
    (Domain_pool.size (Domain_pool.default ()))

(* --- sha256 satellite: non-destructive finalize ---------------------------- *)

let hex = Hash.to_hex

let test_sha256_running_digests () =
  let ctx = Sha256.init () in
  Sha256.update_string ctx "abc";
  let d1 = Sha256.finalize ctx in
  Alcotest.(check string) "abc vector"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (hex (Hash.of_bytes d1));
  (* finalize must not destroy the context: keep absorbing *)
  Sha256.update_string ctx "def";
  let d2 = Sha256.finalize ctx in
  Alcotest.(check string) "running digest equals one-shot"
    (hex (Hash.of_bytes (Sha256.digest_string "abcdef")))
    (hex (Hash.of_bytes d2));
  Alcotest.(check string) "finalize is idempotent"
    (hex (Hash.of_bytes d2))
    (hex (Hash.of_bytes (Sha256.finalize ctx)))

let test_sha256_padding_boundaries () =
  (* lengths straddling both padding paths: the in-buffer fast path
     (bl + 9 <= 64) and the two-block spill *)
  List.iter
    (fun len ->
      let s = String.init len (fun i -> Char.chr (32 + (i mod 90))) in
      let one_shot = Sha256.digest_string s in
      let ctx = Sha256.init () in
      let half = len / 2 in
      Sha256.update_string ctx (String.sub s 0 half);
      (* mid-stream finalize: must equal the prefix digest and leave the
         stream intact *)
      Alcotest.(check string)
        (Printf.sprintf "len %d: prefix digest" len)
        (hex (Hash.of_bytes (Sha256.digest_string (String.sub s 0 half))))
        (hex (Hash.of_bytes (Sha256.finalize ctx)));
      Sha256.update_string ctx (String.sub s half (len - half));
      Alcotest.(check string)
        (Printf.sprintf "len %d: full digest" len)
        (hex (Hash.of_bytes one_shot))
        (hex (Hash.of_bytes (Sha256.finalize ctx))))
    [ 0; 1; 54; 55; 56; 63; 64; 65; 119; 120; 128; 257 ]

let test_hex_writer () =
  Alcotest.(check string) "empty-string vector"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (hex (Hash.digest_string ""));
  for i = 0 to 16 do
    let h = Hash.digest_string (string_of_int i) in
    Alcotest.(check bool)
      (Printf.sprintf "round-trip %d" i)
      true
      (Hash.equal h (Hash.of_hex (Hash.to_hex h)))
  done

(* --- differential: pooled == sequential ------------------------------------ *)

let diff_config =
  { Ledger.default_config with
    name = "par-diff";
    block_size = 4;
    fam_delta = 3;
    latency = Latency_model.free;
    crypto = Crypto_profile.Simulated { sign_us = 0.; verify_us = 0. } }

let mk_ledger ?(crypto = diff_config.Ledger.crypto) () =
  let clock = Clock.create () in
  let ledger = Ledger.create ~config:{ diff_config with crypto } ~clock () in
  let user, key = Ledger.new_member ledger ~name:"puser" ~role:Roles.Regular_user in
  (clock, ledger, user, key)

let payload_of p = Bytes.of_string (Printf.sprintf "par-payload-%d" p)
let clues_of c = if c = 0 then [] else [ "pk" ^ string_of_int (c mod 3) ]

let test_pooled_fam_append_many () =
  with_pool (fun pool ->
      let leaves = List.init 300 (fun i -> Hash.digest_string ("l" ^ string_of_int i)) in
      let seq = Fam.create ~delta:5 and par = Fam.create ~delta:5 in
      ignore (Fam.append_many seq leaves);
      ignore (Fam.append_many ~pool par leaves);
      Alcotest.(check bool) "fam commitments equal" true
        (Hash.equal (Fam.commitment seq) (Fam.commitment par));
      Alcotest.(check int) "fam sizes equal" (Fam.size seq) (Fam.size par);
      for i = 0 to Fam.size seq - 1 do
        if not (Hash.equal (Fam.leaf seq i) (Fam.leaf par i)) then
          Alcotest.failf "fam leaf %d diverged" i
      done)

(* Random interleavings of batched appends and seals, committed through a
   4-domain pool on one side and inline on the other; the histories must
   be byte-identical (size, commitment, blocks, journals, receipts,
   proofs — via [Test_batch_diff.check_equal_histories]). *)
type op = Batch of (int * int) list | Seal

let op_to_string = function
  | Batch es ->
      Printf.sprintf "Batch[%s]"
        (String.concat ";"
           (List.map (fun (p, c) -> Printf.sprintf "(%d,%d)" p c) es))
  | Seal -> "Seal"

let op_gen =
  QCheck.Gen.(
    frequency
      [ ( 5,
          map
            (fun es -> Batch es)
            (list_size (int_range 1 9)
               (map2 (fun p c -> (p, c)) (int_bound 999) (int_bound 3))) );
        (2, return Seal) ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
    QCheck.Gen.(list_size (int_range 3 12) op_gen)

let run_ops ~pool ops =
  let clock, ledger, user, key = mk_ledger () in
  List.iter
    (fun op ->
      match op with
      | Batch es ->
          let entries =
            List.map (fun (p, c) -> (payload_of p, clues_of c)) es
          in
          ignore
            (Ledger.append_batch ~pool ledger ~member:user ~priv:key
               ~seal:false entries);
          Clock.advance_ms clock 5.
      | Seal ->
          Ledger.seal_block ledger;
          Clock.advance_ms clock 5.)
    ops;
  Ledger.seal_block ledger;
  ledger

let prop_pooled_append_batch =
  QCheck.Test.make ~name:"pooled append_batch == sequential" ~count:60 arb_ops
    (fun ops ->
      with_pool (fun pool ->
          let par = run_ops ~pool ops in
          let seq = run_ops ~pool:Domain_pool.sequential ops in
          Test_batch_diff.check_equal_histories par seq))

(* Remote signed batches: signatures minted client-side, validated across
   the pool server-side.  Accepted batches must be byte-identical; a
   poisoned batch must be rejected with the same error and the same
   simulated-clock position as the sequential validator. *)
let signed_entries ?(crypto = diff_config.Ledger.crypto) ledger ~member ~priv
    n ~poison =
  let scratch = Clock.create () in
  List.init n (fun i ->
      let payload = payload_of i and clues = clues_of (i mod 4) in
      let client_ts = Int64.of_int (1_000 * i) and nonce = i + 1 in
      let digest =
        Journal.request_digest ~ledger_uri:(Ledger.uri ledger)
          ~kind_tag:"normal" ~payload ~clues ~client_ts ~nonce
      in
      let signed = if poison = Some i then Hash.digest_string "forged" else digest in
      let signature =
        Crypto_profile.sign crypto scratch ~priv ~pub:member.Roles.pub signed
      in
      (payload, clues, client_ts, nonce, signature))

(* Whole receipts from both batch entry points, pooled (4 domains, so a
   1-core host still fans out) against inline, under a charging
   simulated profile and under [Real].  Each receipt must also stand on
   its own: π_s checks against the digest of its own fields, and the
   timestamps climb by one sign charge per receipt up to the final
   clock — a sign charge moved before the timestamp read, or a π_s over
   the wrong digest, fails here even if both sides share the bug. *)
let charging = Crypto_profile.Simulated { sign_us = 30.; verify_us = 70. }

let receipt_runs =
  [
    ( "append_batch",
      fun ~pool ~crypto ~n ->
        let clock, ledger, user, key = mk_ledger ~crypto () in
        let entries =
          List.init n (fun i -> (payload_of i, clues_of (i mod 4)))
        in
        let rs = Ledger.append_batch ~pool ledger ~member:user ~priv:key entries in
        (Clock.now clock, ledger, rs) );
    ( "append_signed_batch",
      fun ~pool ~crypto ~n ->
        let clock, ledger, user, key = mk_ledger ~crypto () in
        let entries =
          signed_entries ~crypto ledger ~member:user ~priv:key n ~poison:None
        in
        match
          Ledger.append_signed_batch ~pool ledger ~member_id:user.Roles.id
            entries
        with
        | Ok rs -> (Clock.now clock, ledger, rs)
        | Error e -> Alcotest.failf "signed batch rejected: %s" e );
  ]

let check_receipts_stand_alone label ~crypto ~lsp_pub ~final_clock rs =
  let sign_us =
    match crypto with
    | Crypto_profile.Simulated { sign_us; _ } -> Int64.of_float sign_us
    | Crypto_profile.Real -> 0L
  in
  let n = List.length rs in
  List.iteri
    (fun i (r : Receipt.t) ->
      let digest =
        Receipt.signing_digest ~jsn:r.Receipt.jsn
          ~request_hash:r.Receipt.request_hash ~tx_hash:r.Receipt.tx_hash
          ~block_hash:r.Receipt.block_hash ~timestamp:r.Receipt.timestamp
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: receipt %d pi_s checks" label i)
        true
        (Crypto_profile.check crypto ~pub:lsp_pub digest r.Receipt.lsp_sig);
      Alcotest.(check int64)
        (Printf.sprintf "%s: receipt %d timestamp" label i)
        (Int64.sub final_clock (Int64.mul (Int64.of_int (n - i)) sign_us))
        r.Receipt.timestamp)
    rs

(* Under [Real], 7 and 33 entries do not divide into the pool's chunks,
   so the per-chunk [sign_many]/[check_many] calls see uneven chunks. *)
let test_pooled_batch_receipts () =
  with_pool (fun pool ->
      List.iter
        (fun (path, run) ->
          List.iter
            (fun (profile, crypto, n) ->
              let label = Printf.sprintf "%s/%s/%d" path profile n in
              (* clocks read at return: [check_equal_histories] re-signs *)
              let now_p, par, r_par = run ~pool ~crypto ~n in
              let now_s, seq, r_seq =
                run ~pool:Domain_pool.sequential ~crypto ~n
              in
              ignore (Test_batch_diff.check_equal_histories par seq);
              Alcotest.(check int) (label ^ ": receipt counts") n
                (List.length r_par);
              List.iter2
                (fun (a : Receipt.t) (b : Receipt.t) ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s: receipt %d identical" label a.Receipt.jsn)
                    (Bytes.to_string (Test_batch_diff.receipt_bytes b))
                    (Bytes.to_string (Test_batch_diff.receipt_bytes a)))
                r_par r_seq;
              Alcotest.(check int64) (label ^ ": same clock position") now_s now_p;
              check_receipts_stand_alone label ~crypto
                ~lsp_pub:(Ledger.lsp_public_key par) ~final_clock:now_p r_par;
              if crypto = Crypto_profile.Real then
                List.iter
                  (fun r ->
                    Alcotest.(check bool) (label ^ ": Receipt.verify") true
                      (Receipt.verify ~lsp_pub:(Ledger.lsp_public_key par) r))
                  r_par)
            [
              ("simulated", charging, 15);
              ("real", Crypto_profile.Real, 7);
              ("real", Crypto_profile.Real, 15);
              ("real", Crypto_profile.Real, 33);
            ])
        receipt_runs)

(* The second case poisons entry 15 of 33 under [Real] on a 2-domain
   pool, whose chunks are [0,5) [5,9) [9,13) [13,17) …: the bad entry
   sits mid-chunk, inside one [check_many] call. *)
let test_pooled_signed_batch_rejection () =
  List.iter
    (fun (crypto, domains, n, poison) ->
      with_pool ~domains (fun pool ->
          let run pool =
            let clock, ledger, user, key = mk_ledger ~crypto () in
            let entries =
              signed_entries ~crypto ledger ~member:user ~priv:key n
                ~poison:(Some poison)
            in
            match
              Ledger.append_signed_batch ~pool ledger ~member_id:user.Roles.id
                entries
            with
            | Ok _ -> Alcotest.fail "poisoned batch accepted"
            | Error e -> (e, Ledger.size ledger, Clock.now clock)
          in
          let e_par, size_par, clk_par = run pool in
          let e_seq, size_seq, clk_seq = run Domain_pool.sequential in
          Alcotest.(check string) "same rejection" e_seq e_par;
          Alcotest.(check string) "names the poisoned entry"
            (Printf.sprintf "append_batch: bad client signature (entry %d)"
               poison)
            e_par;
          Alcotest.(check int) "nothing committed (pooled)" 0 size_par;
          Alcotest.(check int) "nothing committed (sequential)" 0 size_seq;
          Alcotest.(check int64) "same clock position" clk_seq clk_par))
    [ (diff_config.Ledger.crypto, 4, 12, 7); (Crypto_profile.Real, 2, 33, 15) ]

(* Shard fan-out: a 3-shard fleet driven through a pooled append/seal and
   an inline one must agree shard by shard and on the epoch super-root. *)
let shard_config =
  { Ledger_shard.Sharded_ledger.base =
      { diff_config with Ledger.name = "par-fleet" };
    shards = 3 }

let run_fleet ~pool =
  let module SL = Ledger_shard.Sharded_ledger in
  let clock = Clock.create () in
  let fleet = SL.create ~config:shard_config ~clock () in
  let user, key = SL.new_member fleet ~name:"puser" ~role:Roles.Regular_user in
  let batch lo n =
    ignore
      (SL.append_batch ~pool fleet ~member:user ~priv:key ~seal:false
         (List.init n (fun i -> (payload_of (lo + i), clues_of ((lo + i) mod 4)))))
  in
  batch 0 17;
  let first =
    match SL.seal_epoch ~pool fleet with
    | Ok s -> s
    | Error e -> Alcotest.failf "pooled-vs-seq fleet seal refused: %s" e
  in
  batch 17 9;
  let second =
    match SL.seal_epoch ~pool fleet with
    | Ok s -> s
    | Error e -> Alcotest.failf "second fleet seal refused: %s" e
  in
  (fleet, first, second)

let check_sealed_equal label (a : Ledger_shard.Super_root.sealed)
    (b : Ledger_shard.Super_root.sealed) =
  Alcotest.(check bool)
    (label ^ ": super-root commitment equal")
    true
    (Hash.equal
       (Ledger_shard.Super_root.commitment a)
       (Ledger_shard.Super_root.commitment b));
  Alcotest.(check int) (label ^ ": epoch") a.Ledger_shard.Super_root.epoch
    b.Ledger_shard.Super_root.epoch;
  Array.iteri
    (fun i ra ->
      if not (Hash.equal ra b.Ledger_shard.Super_root.shard_roots.(i)) then
        Alcotest.failf "%s: shard root %d diverged" label i)
    a.Ledger_shard.Super_root.shard_roots

let test_pooled_shard_fleet () =
  let module SL = Ledger_shard.Sharded_ledger in
  with_pool (fun pool ->
      let par, par1, par2 = run_fleet ~pool in
      let seq, seq1, seq2 = run_fleet ~pool:Domain_pool.sequential in
      check_sealed_equal "epoch 0" par1 seq1;
      check_sealed_equal "epoch 1" par2 seq2;
      Alcotest.(check int) "total sizes" (SL.total_size seq) (SL.total_size par);
      for s = 0 to SL.shard_count par - 1 do
        ignore
          (Test_batch_diff.check_equal_histories (SL.shard par s)
             (SL.shard seq s))
      done;
      (* pooled fleet's proofs verify against the shared super digest *)
      let super = Option.get (SL.super_digest par) in
      Alcotest.(check bool) "super digests agree" true
        (Hash.equal super (Option.get (SL.super_digest seq)));
      match SL.prove par ~shard:1 ~jsn:0 with
      | Error e -> Alcotest.failf "prove failed: %s" e
      | Ok proof ->
          Alcotest.(check bool) "cross-shard proof verifies" true
            (SL.verify_proof par ~super proof))

let suite =
  [
    tc "pool of one is inline" `Quick test_pool_of_one_is_inline;
    tc "create clamps to [1,128]" `Quick test_create_clamps;
    tc "empty and singleton inputs" `Quick test_empty_and_singleton;
    tc "more domains than items" `Quick test_more_domains_than_items;
    tc "large map deterministic" `Quick test_large_map_deterministic;
    tc "exception cancels and re-raises" `Quick
      test_exception_cancels_and_reraises;
    tc "nested use runs inline" `Quick test_nested_use_runs_inline;
    tc "LEDGERDB_DOMAINS parsing" `Quick test_env_domain_parsing;
    tc "set_default replaces the pool" `Quick test_set_default;
    tc "sha256 running digests" `Quick test_sha256_running_digests;
    tc "sha256 padding boundaries" `Quick test_sha256_padding_boundaries;
    tc "hex writer vectors round-trip" `Quick test_hex_writer;
    tc "pooled fam append_many" `Quick test_pooled_fam_append_many;
    QCheck_alcotest.to_alcotest prop_pooled_append_batch;
    tc "pooled signed batch" `Quick test_pooled_batch_receipts;
    tc "pooled signed batch rejection" `Quick
      test_pooled_signed_batch_rejection;
    tc "pooled shard fleet" `Quick test_pooled_shard_fleet;
  ]
