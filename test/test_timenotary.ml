(* Tests for the time-notary layer: TSA, pegging protocols, T-Ledger, and
   the Fig. 5 attack bounds. *)

open Ledger_crypto
open Ledger_storage
open Ledger_timenotary

let tc = Alcotest.test_case

let test_tsa_tokens () =
  let clock = Clock.create () in
  let tsa = Tsa.create ~endorse_rtt_ms:10. ~clock "nts" in
  let d = Hash.digest_string "ledger digest" in
  let token = Tsa.endorse tsa d in
  Alcotest.(check bool) "token verifies" true
    (Tsa.verify_token (Tsa.public_key tsa) token);
  Alcotest.(check bool) "chain verifies" true
    (Tsa.verify_token_with_chain tsa token);
  Alcotest.(check int64) "endorsement charged the clock" 10_000L
    token.Tsa.timestamp;
  (* tamper with the timestamp *)
  let forged = { token with Tsa.timestamp = 999L } in
  Alcotest.(check bool) "forged timestamp rejected" false
    (Tsa.verify_token (Tsa.public_key tsa) forged);
  (* tamper with the digest *)
  let forged = { token with Tsa.digest = Hash.digest_string "other" } in
  Alcotest.(check bool) "forged digest rejected" false
    (Tsa.verify_token (Tsa.public_key tsa) forged)

let test_tsa_pool () =
  let clock = Clock.create () in
  let a = Tsa.create ~endorse_rtt_ms:1. ~clock "a" in
  let b = Tsa.create ~endorse_rtt_ms:1. ~clock "b" in
  let pool = Tsa.pool [ a; b ] in
  let t1 = Tsa.pool_endorse pool (Hash.digest_string "1") in
  let t2 = Tsa.pool_endorse pool (Hash.digest_string "2") in
  Alcotest.(check bool) "round robin" false
    (Hash.equal t1.Tsa.tsa_id t2.Tsa.tsa_id);
  Alcotest.(check bool) "pool verifies both" true
    (Tsa.pool_verify pool t1 && Tsa.pool_verify pool t2);
  Alcotest.(check bool) "find by id" true (Tsa.pool_find pool t1.Tsa.tsa_id <> None);
  (* token from an authority outside the pool is rejected *)
  let outsider = Tsa.create ~endorse_rtt_ms:1. ~clock "mallory" in
  let alien = Tsa.endorse outsider (Hash.digest_string "1") in
  Alcotest.(check bool) "outsider rejected" false (Tsa.pool_verify pool alien)

let test_one_way_pegging () =
  let clock = Clock.create () in
  let peg = Pegging.One_way.create ~clock in
  let t0 = Pegging.One_way.enqueue peg (Hash.digest_string "a") in
  let t1 = Pegging.One_way.enqueue peg (Hash.digest_string "b") in
  Alcotest.(check int) "queued" 2 (Pegging.One_way.queued peg);
  Clock.advance_sec clock 5.;
  (match Pegging.One_way.anchor_next peg with
  | Some (t, ts) ->
      Alcotest.(check int) "FIFO" t0 t;
      Alcotest.(check int64) "anchored at operator's chosen time" 5_000_000L ts
  | None -> Alcotest.fail "expected an anchor");
  Alcotest.(check bool) "second still pending" true
    (Pegging.One_way.anchored_time peg t1 = None)

let test_two_way_pegging () =
  let clock = Clock.create () in
  let pool = Tsa.pool [ Tsa.create ~endorse_rtt_ms:2. ~clock "t" ] in
  let peg = Pegging.Two_way.create ~clock ~tsa:pool in
  let token = Pegging.Two_way.peg peg (Hash.digest_string "x") in
  Clock.advance_ms clock 30.;
  let idx = Pegging.Two_way.anchor_back peg token in
  (match Pegging.Two_way.anchored_token peg idx with
  | Some t -> Alcotest.(check bool) "token stored" true (Tsa.pool_verify pool t)
  | None -> Alcotest.fail "missing token");
  match Pegging.Two_way.anchor_back_time peg idx with
  | Some ts ->
      Alcotest.(check bool) "anchor-back later than endorsement" true
        (Int64.compare ts token.Tsa.timestamp > 0)
  | None -> Alcotest.fail "missing anchor time"

let make_tl ?(tau_delta_ms = 500.) ?(anchor_interval_ms = 1000.) () =
  let clock = Clock.create () in
  let pool = Tsa.pool [ Tsa.create ~endorse_rtt_ms:1. ~clock "t" ] in
  (clock, T_ledger.create ~tau_delta_ms ~anchor_interval_ms ~clock ~tsa:pool ())

let test_t_ledger_protocol4 () =
  let clock, tl = make_tl () in
  let lid = Hash.digest_string "ledger-1" in
  (* fresh submission accepted *)
  (match
     T_ledger.submit tl ~ledger_id:lid ~digest:(Hash.digest_string "d1")
       ~client_ts:(Clock.now clock)
   with
  | Ok e -> Alcotest.(check int) "first entry" 0 e.T_ledger.index
  | Error _ -> Alcotest.fail "fresh submission rejected");
  (* stale submission rejected: client_ts too old vs notary clock *)
  let stale_ts = Clock.now clock in
  Clock.advance_ms clock 600.;
  (match
     T_ledger.submit tl ~ledger_id:lid ~digest:(Hash.digest_string "d2")
       ~client_ts:stale_ts
   with
  | Ok _ -> Alcotest.fail "stale submission accepted"
  | Error (T_ledger.Stale_submission { client_ts; notary_ts }) ->
      Alcotest.(check bool) "error fields" true
        (Int64.compare notary_ts client_ts > 0));
  ()

let test_t_ledger_anchoring_and_bounds () =
  let clock, tl = make_tl () in
  ignore (T_ledger.force_anchor tl);
  let lid = Hash.digest_string "ledger-1" in
  let submit i =
    Clock.advance_ms clock 300.;
    match
      T_ledger.submit tl ~ledger_id:lid
        ~digest:(Hash.digest_string (string_of_int i))
        ~client_ts:(Clock.now clock)
    with
    | Ok e -> e
    | Error _ -> Alcotest.fail "submission rejected"
  in
  let entries = List.init 8 submit in
  Clock.advance_ms clock 1500.;
  T_ledger.tick tl;
  (* every ledger-digest entry has verified TSA bounds on both sides *)
  List.iter
    (fun (e : T_ledger.entry) ->
      match T_ledger.verify_entry_time tl e.T_ledger.index with
      | Some (Some lo, Some hi) ->
          Alcotest.(check bool) "bounds ordered" true (Int64.compare lo hi < 0);
          Alcotest.(check bool) "entry inside bounds" true
            (Int64.compare lo e.T_ledger.notary_ts <= 0
            && Int64.compare e.T_ledger.notary_ts hi <= 0)
      | _ -> Alcotest.fail "missing bounds")
    entries;
  (* existence proofs *)
  let e3 = List.nth entries 3 in
  let path = T_ledger.prove_entry tl e3.T_ledger.index in
  Alcotest.(check bool) "entry proof" true
    (T_ledger.verify_entry ~root:(T_ledger.root tl) ~entry:e3 path);
  let forged = { e3 with T_ledger.digest = Hash.digest_string "forged" } in
  Alcotest.(check bool) "forged entry rejected" false
    (T_ledger.verify_entry ~root:(T_ledger.root tl) ~entry:forged path);
  Alcotest.(check bool) "anchors recorded" true
    (List.length (T_ledger.anchors_between tl 0 (T_ledger.entry_count tl - 1)) >= 2)

let test_t_ledger_periodic_anchor () =
  let clock, tl = make_tl ~anchor_interval_ms:100. () in
  let before = T_ledger.entry_count tl in
  Clock.advance_ms clock 150.;
  T_ledger.tick tl;
  Clock.advance_ms clock 50.;
  T_ledger.tick tl (* too soon: no new anchor *);
  Clock.advance_ms clock 100.;
  T_ledger.tick tl;
  Alcotest.(check int) "two anchors fired" (before + 2) (T_ledger.entry_count tl)

let test_attack_one_way_unbounded () =
  List.iter
    (fun delay ->
      let o = Attack.one_way_amplification ~delay_s:delay in
      Alcotest.(check bool) "window equals delay" true
        (abs_float (o.Attack.window_s -. delay) < 0.01);
      Alcotest.(check bool) "unbounded" false o.Attack.bounded)
    [ 0.5; 3.; 120. ]

let test_attack_two_way_bounded () =
  List.iter
    (fun delay ->
      let o = Attack.two_way_window ~delta_tau_s:1.0 ~attempted_delay_s:delay in
      Alcotest.(check bool)
        (Printf.sprintf "window bounded for delay %.1f" delay)
        true
        (o.Attack.window_s <= 2.01);
      Alcotest.(check bool) "flagged bounded" true o.Attack.bounded)
    [ 0.1; 1.; 30.; 600. ];
  (* the bound scales with delta_tau *)
  let o = Attack.two_way_window ~delta_tau_s:0.2 ~attempted_delay_s:60. in
  Alcotest.(check bool) "tighter delta_tau, tighter bound" true
    (o.Attack.window_s <= 0.41)

let test_attack_sweep_shape () =
  let outcomes = Attack.sweep ~delta_tau_s:1.0 ~delays_s:[ 1.; 100. ] in
  Alcotest.(check int) "two protocols per delay" 4 (List.length outcomes);
  let one_way_100 =
    List.find
      (fun o ->
        o.Attack.attempted_delay_s = 100. && not o.Attack.bounded)
      outcomes
  in
  let two_way_100 =
    List.find
      (fun o -> o.Attack.attempted_delay_s = 100. && o.Attack.bounded)
      outcomes
  in
  Alcotest.(check bool) "amplification vs bound" true
    (one_way_100.Attack.window_s > 10. *. two_way_100.Attack.window_s)

let base_suite =
  [
    tc "tsa tokens" `Quick test_tsa_tokens;
    tc "tsa pool" `Quick test_tsa_pool;
    tc "one-way pegging" `Quick test_one_way_pegging;
    tc "two-way pegging" `Quick test_two_way_pegging;
    tc "t-ledger protocol 4" `Quick test_t_ledger_protocol4;
    tc "t-ledger anchors and bounds" `Quick test_t_ledger_anchoring_and_bounds;
    tc "t-ledger periodic anchor" `Quick test_t_ledger_periodic_anchor;
    tc "attack: one-way unbounded" `Quick test_attack_one_way_unbounded;
    tc "attack: two-way bounded" `Quick test_attack_two_way_bounded;
    tc "attack: sweep shape" `Quick test_attack_sweep_shape;
  ]

(* --- multi-ledger T-Ledger ---------------------------------------------------- *)

let test_t_ledger_serves_many_ledgers () =
  (* the T-Ledger is one public notary for all ledgers (§III-B2): several
     ledgers interleave submissions, and each gets correct bounds *)
  let clock = Clock.create () in
  let pool = Tsa.pool [ Tsa.create ~endorse_rtt_ms:1. ~clock "shared" ] in
  let tl = T_ledger.create ~clock ~tsa:pool () in
  ignore (T_ledger.force_anchor tl);
  let ledger_ids =
    List.init 4 (fun i -> Hash.digest_string ("ledger-" ^ string_of_int i))
  in
  let submissions = ref [] in
  for round = 0 to 5 do
    List.iteri
      (fun i lid ->
        Clock.advance_ms clock 40.;
        match
          T_ledger.submit tl ~ledger_id:lid
            ~digest:(Hash.digest_string (Printf.sprintf "d-%d-%d" i round))
            ~client_ts:(Clock.now clock)
        with
        | Ok e -> submissions := (lid, e) :: !submissions
        | Error _ -> Alcotest.fail "submission rejected")
      ledger_ids
  done;
  Clock.advance_ms clock 1200.;
  T_ledger.tick tl;
  Alcotest.(check int) "24 submissions" 24 (List.length !submissions);
  (* every ledger's every entry is provable and time-bounded *)
  List.iter
    (fun (lid, (e : T_ledger.entry)) ->
      (match e.T_ledger.kind with
      | T_ledger.Ledger_digest { ledger_id; _ } ->
          Alcotest.(check bool) "entry names its ledger" true
            (Hash.equal ledger_id lid)
      | T_ledger.Tsa_anchor _ -> Alcotest.fail "unexpected anchor");
      let path = T_ledger.prove_entry tl e.T_ledger.index in
      Alcotest.(check bool) "entry provable" true
        (T_ledger.verify_entry ~root:(T_ledger.root tl) ~entry:e path);
      match T_ledger.verify_entry_time tl e.T_ledger.index with
      | Some (Some _, Some _) -> ()
      | _ -> Alcotest.fail "entry lacks TSA bounds")
    !submissions

let multi_ledger_suite =
  [ tc "t-ledger serves many ledgers" `Quick test_t_ledger_serves_many_ledgers ]

(* --- leaf layout ------------------------------------------------------------ *)

let test_t_ledger_leaf_collision () =
  (* A real entry (client_ts 1, digest D, notary_ts 23) with D's first
     byte '2', and a forged one (12, D[1..31] ^ "2", 3): decimal fields
     joined without lengths would give both one leaf, so the real
     entry's proof would also prove the backdated notary time 3. *)
  let clock, tl = make_tl () in
  Clock.advance clock 23L;
  let d = Bytes.of_string ("2" ^ String.make 31 'x') in
  let lid = Hash.digest_string "ledger-1" in
  let e =
    match
      T_ledger.submit tl ~ledger_id:lid ~digest:(Hash.of_bytes d) ~client_ts:1L
    with
    | Ok e -> e
    | Error _ -> Alcotest.fail "submission rejected"
  in
  Alcotest.(check int64) "notary time" 23L e.T_ledger.notary_ts;
  let forged =
    {
      e with
      T_ledger.kind = T_ledger.Ledger_digest { ledger_id = lid; client_ts = 12L };
      digest = Hash.of_bytes (Bytes.of_string (String.make 31 'x' ^ "2"));
      notary_ts = 3L;
    }
  in
  let root = T_ledger.root tl and path = T_ledger.prove_entry tl e.T_ledger.index in
  Alcotest.(check bool) "real entry proved" true (T_ledger.verify_entry ~root ~entry:e path);
  Alcotest.(check bool) "backdated entry refused" false
    (T_ledger.verify_entry ~root ~entry:forged path)

let leaf_suite =
  [ tc "t-ledger leaf: backdated split fields refused" `Quick test_t_ledger_leaf_collision ]

let suite = base_suite @ multi_ledger_suite @ leaf_suite
