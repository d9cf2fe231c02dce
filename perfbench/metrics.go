package main

import "opportunet/internal/experiments"

// metricDef is one metric's name and unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the end-to-end metrics every workload prints with
// -trace 0. README.md defines each one per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"rate_per_s", "1/s"},
}

// perLayer are the per-layer metrics a -trace 1 run prints; a layer the
// workload does not exercise reads 0. The suite's per-experiment timers
// are appended from the experiment list.
var perLayer = []metricDef{
	{"tracing.overhead_s", "s"},
	{"tracing.overhead_p50_ms", "ms"},
	{"mem.peak_rss_mb", "MiB"},
	// study
	{"trace.parse_s", "s"},
	{"timeline.index_s", "s"},
	{"core.compute_s", "s"},
	{"analysis.cdf_s", "s"},
	{"analysis.diameter_s", "s"},
	{"analysis.removal_s", "s"},
	{"reach.bounds_s", "s"},
	{"core.archive_entries", "count"},
	{"core.accept_ratio", "ratio"},
	{"analysis.curve_hit_ratio", "ratio"},
	{"par.busy_frac", "ratio"},
	// ingest
	{"trace.stream_s", "s"},
	{"timeline.append_s", "s"},
	{"timeline.snapshot_s", "s"},
	{"timeline.segments", "count"},
	{"core.extend_s", "s"},
	{"core.extend_p90_ms", "ms"},
	{"analysis.final_s", "s"},
	// suite
	{"tracegen.generate_s", "s"},
	{"analysis.dataset_study_s", "s"},
	// serve
	{"client.read_p50_ms.low", "ms"},
	{"client.read_p99_ms.low", "ms"},
	{"client.read_p50_ms.high", "ms"},
	{"client.read_p99_ms.high", "ms"},
	{"client.cdf_fresh_p50_ms", "ms"},
	{"client.diam_fresh_p50_ms", "ms"},
	{"client.send_lag_p99_ms", "ms"},
	{"client.cpu_s", "s"},
	{"server.queue_p99_ms", "ms"},
	{"server.compute_p50_ms.path", "ms"},
	{"server.encode_p50_ms.path", "ms"},
	{"server.transport_p50_ms.path", "ms"},
	{"server.compute_p50_ms.agg", "ms"},
	{"server.coalesced_frac", "ratio"},
	{"reach.builds", "count"},
	{"reach.cert_passes", "count"},
}

func perLayerNames() []metricDef {
	defs := append([]metricDef(nil), perLayer...)
	for _, e := range experiments.All() {
		defs = append(defs, metricDef{"experiments." + e.Name + "_s", "s"})
	}
	return defs
}
