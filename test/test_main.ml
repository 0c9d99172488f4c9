(* Aggregates every suite in the Chimera test tree. *)

let () =
  Alcotest.run "chimera"
    (Test_util.suites @ Test_tensor.suites @ Test_arch.suites @ Test_ir.suites @ Test_analytical.suites @ Test_microkernel.suites @ Test_codegen.suites @ Test_sim.suites @ Test_exec.suites @ Test_chimera.suites @ Test_workloads.suites @ Test_baselines.suites @ Test_chain3.suites @ Test_graph.suites @ Test_address_trace.suites @ Test_advisor.suites @ Test_parallelism.suites @ Test_parallel_exec.suites @ Test_sweep.suites @ Test_headline.suites @ Test_matrix.suites @ Test_properties.suites @ Test_planner_fast.suites @ Test_service.suites @ Test_verify.suites @ Test_diff_walk.suites @ Test_certify.suites @ Test_obs.suites @ Test_fleet.suites)
