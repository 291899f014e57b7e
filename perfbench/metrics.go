package main

// metricSpec names one reported metric. The two tables below are the
// benchmark's interface: BENCHMARK.json at the repository root lists the
// same names, units and directions (TestBenchmarkJSONMatches keeps the
// two in step). The workload-specific figures a run prints beside them
// are listed in README.md.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics an untraced run reports, on every workload.
// Times are process CPU time (user plus system, all threads): on a
// shared virtual machine the wall clock carries the host's steal time,
// which moves run to run by more than any bound worth setting. The time
// per unit is a mean: per-unit CPU time still jitters by about ten
// percent on such a host, and on eco and verify, which time many units
// per run, the mean averages that. A flow pass outlasts the measuring
// time, so a flow run times one pass and its figure is that pass alone.
// Median, tail, wall clock and
// peak RSS (which GC timing moves by 18-35% between identical runs) are
// printed beside them, not gated; bytes allocated stand in for RSS.
// What one timed unit is depends on the workload: one pass of the flow
// over the workload's circuits (flow-small, flow-s38584), one ECO edit
// (eco), or one 256-lane batch over the three verification pairs
// (verify). The README maps each onto the workload-specific names.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"unit_cpu_s", "s", "lower"},
	{"unit_alloc_mb", "MB", "lower"},
	{"period_reduction_pct", "%", "higher"},
	{"area_saving_pct", "%", "higher"},
}

// perLayer are the metrics a traced run reports: totals over the traced
// run (one set-up and one round of the workload), taken from the spans
// the benchmark records around its calls into each layer. Span times
// are process CPU time, as above.
var perLayer = []metricSpec{
	{"gen.generate_ms", "ms", "lower"},
	{"sizing.size_ms", "ms", "lower"},
	{"retime.retime_ms", "ms", "lower"},
	{"sta.analyze_ms", "ms", "lower"},
	{"core.extract_ms", "ms", "lower"},
	{"core.probe_ms", "ms", "lower"},
	{"core.probes", "count", "lower"},
	{"core.probe_feasible_frac", "frac", "higher"},
	{"core.replace_ms", "ms", "lower"},
	{"core.chains_replaced", "count", "higher"},
	{"core.validate_ms", "ms", "lower"},
	{"core.apply_ms", "ms", "lower"},
	{"lp.pivots", "count", "lower"},
	{"lp.pivots_replace", "count", "lower"},
	{"lp.cold_starts", "count", "lower"},
	{"lp.warm_hit_rate", "frac", "higher"},
	{"lp.bnb_nodes", "count", "lower"},
	{"eco.reoptimize_ms", "ms", "lower"},
	{"eco.cone_nodes", "count", "lower"},
	{"sta.arrival_recomputed", "count", "lower"},
	{"eco.recovery_steps", "count", "lower"},
	{"eco.fallbacks", "count", "lower"},
	{"eco.spliced_frac", "frac", "higher"},
	{"sim.lanes_ms", "ms", "lower"},
	{"sim.event_ms", "ms", "lower"},
	{"sim.flagged_lanes", "count", "lower"},
	{"sim.engine_a_bitsim", "count", "higher"},
	{"sim.engine_a_wavesim", "count", "lower"},
	{"sim.engine_b_bitsim", "count", "higher"},
	{"sim.engine_b_wavesim", "count", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}
