package main

// perLayer is every per-layer metric a traced run reports, in print
// order; BENCHMARK.json lists the same names. A workload reports 0 for a
// layer it does not exercise.
var perLayer = []metricDef{
	// kernel (dhfr-512)
	{"sim.events", "count"},
	{"sim.exec_windows", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.allocs_per_event", "count"},
	{"sim.bytes_per_event", "B"},
	// runtime, over the timed body (all workloads)
	{"gc.cpu_frac", "frac"},
	{"gc.cycles", "count"},
	// model (dhfr-512)
	{"machine.packets", "count"},
	{"machine.bytes", "B"},
	{"machine.build_s", "s"},
	{"mdmap.new_s", "s"},
	{"mdmap.step_rl_s", "s"},
	{"mdmap.step_lr_s", "s"},
	{"mdmap.step_lr_first_s", "s"},
	{"mdmap.step_mig_s", "s"},
	// orchestration and fast path (paper-quick)
	{"harness.ablate-allreduce_s", "s"},
	{"harness.ablate-multicast_s", "s"},
	{"harness.ablate-staging_s", "s"},
	{"harness.fastpath_s", "s"},
	{"harness.fastpath-analytic_s", "s"},
	{"harness.faultsweep_s", "s"},
	{"harness.fig5_s", "s"},
	{"harness.fig6_s", "s"},
	{"harness.fig7_s", "s"},
	{"harness.halfbw_s", "s"},
	{"harness.killsweep_s", "s"},
	{"harness.metrics_s", "s"},
	{"harness.migsync_s", "s"},
	{"harness.table1_s", "s"},
	{"harness.table2_s", "s"},
	{"analytic.ns_per_query", "ns"},
	// service (serve-churn)
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.handler_hit_us", "us"},
	{"serve.hit_ratio", "frac"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p99_ms", "ms"},
	{"serve.handler_miss_ms", "ms"},
	{"serve.join_count", "count"},
	{"serve.des_busy_frac", "frac"},
	{"harness.miss_compute_ms.fig6", "ms"},
	{"harness.miss_compute_ms.table1", "ms"},
	{"harness.miss_compute_ms.halfbw", "ms"},
	{"harness.miss_compute_ms.ablate-allreduce", "ms"},
	{"checkpoint.persists", "count"},
	{"checkpoint.bytes", "B"},
	{"checkpoint.write_ms", "ms"},
	{"serve.shed_count", "count"},
	{"serve.timeout_count", "count"},
	{"loadgen.late_p99_ms", "ms"},
	// the benchmark's own tracing cost: traced over untraced body CPU
	{"trace.overhead_frac", "frac"},
}
