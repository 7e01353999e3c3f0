let () =
  Alcotest.run "fence_scoping"
    [
      ("util", Test_util.tests);
      ("isa", Test_isa.tests);
      ("bitset", Test_bitset.tests);
      ("cache", Test_cache.tests);
      ("hierarchy", Test_hierarchy.tests);
      ("cpu", Test_cpu.tests);
      ("scope_unit", Test_scope_unit.tests);
      ("scope_semantics", Test_scope_semantics.tests);
      ("sim", Test_sim.tests);
      ("slang", Test_slang.tests);
      ("workloads", Test_workloads.tests);
      ("obs", Test_obs.tests);
      ("profile", Test_profile.tests);
      ("differential", Test_differential.tests);
      ("engine", Test_engine.tests);
      ("sampling", Test_sampling.tests);
      ("core_pinned", Test_core_pinned.tests);
      ("server", Test_server.tests);
      ("advisor", Test_advisor.tests);
      ("trend", Test_trend.tests);
      ("cli", Test_cli.tests);
    ]
