let () =
  (* CI's fault matrix sets MCC_FAULTS for the whole binary; arming up
     front makes malformed specs warn once, before any suite runs, and
     lets suites relax exact-counter assertions when points are armed. *)
  Mc_support.Fault.arm_from_env ();
  Alcotest.run "loop-transformations-clang-ast"
    [
      ("int_ops", Test_int_ops.suite);
      ("srcmgr", Test_srcmgr.suite);
      ("lexer", Test_lexer.suite);
      ("preprocessor", Test_pp.suite);
      ("ast", Test_ast.suite);
      ("parser", Test_parser.suite);
      ("sema", Test_sema.suite);
      ("canonical", Test_canonical.suite);
      ("shadow", Test_shadow.suite);
      ("ir", Test_ir.suite);
      ("verifier", Test_verifier.suite);
      ("ompbuilder", Test_ompbuilder.suite);
      ("passes", Test_passes.suite);
      ("interp", Test_interp.suite);
      ("schedule", Test_schedule.suite);
      ("stats", Test_stats.suite);
      ("fault", Test_fault.suite);
      ("driver", Test_driver.suite);
      ("batch", Test_batch.suite);
      ("cache", Test_cache.suite);
      ("store", Test_store.suite);
      ("server", Test_server.suite);
      ("pipeline", Test_pipeline.suite);
      ("limits", Test_limits.suite);
      ("fngrain", Test_fngrain.suite);
      ("transfo", Test_transfo.suite);
      ("goldens", Test_goldens.suite);
      ("e2e", Test_e2e.suite);
      ("fuzz", Test_fuzz.suite);
      ("differential", Test_differential.suite);
      ("crash", Test_crash.suite);
      ("analysis", Test_analysis.suite);
    ]
