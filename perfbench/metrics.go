package main

// The metric tables. BENCHMARK.json names the same metrics with the same
// units (pinned by TestBenchmarkJSONMatchesTables); an untraced run prints
// exactly the end-to-end table and a traced run exactly the per-layer
// table, a layer a workload does not exercise reading 0.

// endToEnd are the metrics a user of the simulator sees, from the untraced
// run.
var endToEnd = []metricSpec{
	{"setup_s", "s"},              // ICs + world start + initial forces, median of set-ups
	{"step_s", "s"},               // median host wall per step
	{"run_s", "s"},                // first step boundary to return, cold warm-up included
	{"bodies_steps_per_s", "1/s"}, // N x steps / run_s
	{"ns_per_interaction", "ns"},  // core.Run (or step loop) wall / interactions
	{"peak_rss_mb", "MB"},         // process VmHWM after the measured run
	{"force_rms_err", "frac"},     // RMS relative tree-vs-direct acceleration error
}

// perLayer are the layer metrics of the traced run. Times and counts are
// per step; per-rank times are the mean over ranks unless named _max_.
var perLayer = []metricSpec{
	{"core.decompose_s", "s"},
	{"core.decompose_max_s", "s"},
	{"core.decompose.imbalance", "ratio"},
	{"core.build_s", "s"},
	{"core.build_max_s", "s"},
	{"core.branch_exchange_s", "s"},
	{"core.forces_s", "s"},
	{"core.forces_max_s", "s"},
	{"core.integrate_s", "s"},
	{"core.collectives_s", "s"},
	{"core.pool.busy_s", "s"},
	{"core.pool.utilization", "frac"},
	{"core.fetch.requests", "count/step"},
	{"core.fetch.dedup_ratio", "frac"},
	{"core.bodycache.hit_ratio", "frac"},
	{"core.list.cells_per_step", "count/step"},
	{"core.list.bodies_per_step", "count/step"},
	{"core.interactions_per_step", "count/step"},
	{"htree.build.key_s", "s"},
	{"htree.build.sort_s", "s"},
	{"htree.build.build_s", "s"},
	{"htree.build.merge_s", "s"},
	{"htree.walk_s", "s"},
	{"htree.walk.body_interactions", "count/step"},
	{"htree.walk.cell_interactions", "count/step"},
	{"htree.walk.cells_opened", "count/step"},
	{"sph.step_s", "s"},
	{"sph.hydro_s", "s"},
	{"gravity.kernel_ns_per_interaction", "ns"},
	{"gravity.flops_per_step", "flop/step"},
	{"gravity.bytes_per_step", "B/step"},
	{"mp.messages_per_step", "count/step"},
	{"mp.bytes_per_step", "B/step"},
	{"mp.collective_messages_per_step", "count/step"},
	{"mp.abm.items_per_batch", "count"},
	{"mp.engine.events", "count/step"},
	{"mp.engine.parks", "count/step"},
	{"runtime.alloc_mb_per_step", "MB/step"},
	{"runtime.gc_cycles_per_step", "count/step"},
	{"runtime.gc_pause_s", "s/step"},
	{"host.cpu_util", "frac"},
	{"trace.tile_frac_min", "frac"},
	{"trace.overhead_frac", "frac"},
	{"failed_frac", "frac"},
	// energy_drift is |E_end - E_0| / |E_0| of the untraced twin. It is
	// gated on every run, but its seed-to-seed spread is far wider than
	// any end-to-end bound, so it is reported here.
	{"energy_drift", "frac"},
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }
