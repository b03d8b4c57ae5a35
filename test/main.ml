(* Test aggregator: one alcotest suite per library. *)

let () =
  Alcotest.run "ledgerdb-repro"
    [
      ("crypto", Test_crypto.suite);
      ("crypto-props", Test_crypto_props.suite);
      ("storage", Test_storage.suite);
      ("merkle", Test_merkle.suite);
      ("mpt", Test_mpt.suite);
      ("query", Test_query.suite);
      ("cmtree", Test_cmtree.suite);
      ("timenotary", Test_timenotary.suite);
      ("ledger", Test_ledger.suite);
      ("audit", Test_audit.suite);
      ("baselines", Test_baselines.suite);
      ("core-units", Test_core_units.suite);
      ("client-api", Test_client_api.suite);
      ("bench-util", Test_bench_util.suite);
      ("persistence", Test_persistence.suite);
      ("ledger-model", Test_ledger_model.suite);
      ("batch-diff", Test_batch_diff.suite);
      ("service", Test_service.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("replica", Test_replica.suite);
      ("faults", Test_faults.suite);
      ("survivability", Test_survivability.suite);
      ("obs", Test_obs.suite);
      ("shard", Test_shard.suite);
      ("par", Test_par.suite);
      ("net", Test_net.suite);
      ("read-view", Test_read_view.suite);
      ("commit-path", Test_commit_path.suite);
    ]
