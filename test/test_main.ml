let () =
  Alcotest.run "proxion"
    [
      ("hexutil", T_hexutil.suite);
      ("u256", T_u256.suite);
      ("keccak", T_keccak.suite);
      ("rlp", T_rlp.suite);
      ("evm", T_evm.suite);
      ("evm-ops", T_evm_ops.suite);
      ("state-vectors", T_state_vectors.suite);
      ("report", T_report.suite);
      ("fuzz", T_fuzz.suite);
      ("chain", T_chain.suite);
      ("minisol", T_minisol.suite);
      ("differential", T_differential.suite);
      ("proxion", T_proxion.suite);
      ("baselines", T_baselines.suite);
      ("dataset", T_dataset.suite);
      ("stream", T_stream.suite);
      ("experiments", T_experiments.suite);
      ("engine", T_engine.suite);
      ("obs", T_obs.suite);
      ("parallel", T_parallel.suite);
      ("chaos", T_chaos.suite);
      ("crash", T_crash.suite);
      ("serve", T_serve.suite);
      ("reorg", T_reorg.suite);
      ("ratchet", T_ratchet.suite);
    ]
