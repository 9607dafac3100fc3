package main

// metricDef names one metric of the result line and its unit. The two
// tables below are the benchmark's whole output vocabulary; BENCHMARK.json
// at the root of the repository lists the same names.
type metricDef struct {
	name, unit string
}

// endToEnd are printed with --trace 0, on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// perLayer are printed with --trace 1, on every workload; a layer a
// workload does not reach reads 0 there, which is what makes that
// workload the layer's control.
var perLayer = append([]metricDef{
	// Simulated outputs of the traced pass; each is 0 outside the
	// workloads that produce it.
	{"fail_frac", "ratio"},
	{"sim_makespan_s", "s"},
	{"rupam_speedup", "x"},
	{"placement_rate", "1/s"},
	{"sink_throughput_hz", "1/s"},
	{"p99_latency_ms", "ms"},
	{"jobs_per_hour", "1/h"},
	{"app_p99_s", "s"},

	{"simx.events", "count"},
	{"simx.host_us_per_event", "us"},
	{"netsim.bytes_moved", "B"},
	{"executor.launches", "count"},
	{"executor.spec_copies", "count"},
	{"executor.ooms", "count"},
	{"core.sched_s", "s"},
	{"core.sched_calls", "count"},
	{"core.candidates_scored", "count"},
	{"spark.sched_s", "s"},
	{"spark.sched_calls", "count"},
	{"spark.fetch_failures", "count"},
	{"spark.resubmissions", "count"},
	{"spark.driver_recoveries", "count"},
	{"wal.records", "count"},
	{"wal.bytes", "B"},
	{"wal.replay_s", "s"},
	{"federation.msgs_sent", "count"},
	{"federation.commits", "count"},
	{"federation.resyncs", "count"},
	{"monitor.heartbeats", "count"},
	{"streaming.migrations", "count"},
	{"streaming.alloc_mb_per_run", "MB"},
	{"tenant.apps_completed", "count"},
	{"tenant.rejected", "count"},
	{"gc.cycles", "count"},
	{"gc.pause_s", "s"},
	{"setup.inputs_s", "s"},
	{"setup.warmup_s", "s"},
	{"host.wall_raw_s", "s"},
	{"host.ref_s", "s"},
	{"trace.overhead_s", "s"},
	{"go_runtime.self_frac", "ratio"},
	{"other.self_frac", "ratio"},
}, shareDefs()...)

func shareDefs() []metricDef {
	var defs []metricDef
	for _, m := range profiledModules {
		defs = append(defs, metricDef{m + ".self_frac", "ratio"}, metricDef{m + ".incl_frac", "ratio"})
	}
	return defs
}

// emit picks the table's metrics out of vals; a missing value is 0.
func emit(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
