package main

// metricDef names one reported metric. BENCHMARK.json repeats these tables;
// TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the served system sees. Every timing is
// "time at reference host speed" (see probe.go). Bound is the share of the
// parent's median by which a later change may worsen the metric.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"query_p50_us", "us", "lower", 0.15},
	{"query_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.15},
	{"rss_mb", "MB", "lower", 0.15},
}

// perLayer are the traced run's metrics, outermost layer last. A metric that
// does not apply to a workload (pager.* without a paged base, wal.* on a
// static corpus, kwsc.collect_us on a dynamic one) reads 0 there.
var perLayer = []metricDef{
	{Name: "core.query_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.query_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.nodes_per_query", Unit: "count", Better: "lower"},
	{Name: "core.ops_per_query", Unit: "count", Better: "lower"},
	{Name: "core.results_per_query", Unit: "count", Better: "lower"},
	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "core.fallbacks", Unit: "count", Better: "lower"},
	{Name: "core.dyn_publishes", Unit: "count", Better: "lower"},
	{Name: "core.dyn_carries", Unit: "count", Better: "lower"},
	{Name: "core.dyn_rebuilds", Unit: "count", Better: "lower"},
	{Name: "kwsc.collect_us", Unit: "us", Better: "lower"},
	{Name: "serve.query_us", Unit: "us", Better: "lower"},
	{Name: "serve.write_us", Unit: "us", Better: "lower"},
	{Name: "serve.self_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.req_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "client.self_us", Unit: "us", Better: "lower"},
	{Name: "client.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "pager.pin_hits", Unit: "count", Better: "higher"},
	{Name: "pager.pin_misses", Unit: "count", Better: "lower"},
	{Name: "pager.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pager.evictions", Unit: "count", Better: "lower"},
	{Name: "pager.pin_us", Unit: "us", Better: "lower"},
	{Name: "pager.cold_open_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.appends", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_write", Unit: "B", Better: "lower"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "wal.checkpoints", Unit: "count", Better: "lower"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "codec.ckpt_bytes_per_obj", Unit: "B", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_us_per_op", Unit: "us", Better: "lower"},
	{Name: "host.probe_us", Unit: "us", Better: "lower"},
	{Name: "host.probe_spread", Unit: "ratio", Better: "lower"},
	{Name: "raw.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "raw.query_p50_us", Unit: "us", Better: "lower"},
	{Name: "raw.query_p99_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.ops", Unit: "count", Better: "higher"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result object printed as the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fillMetrics builds the metrics map from defs, taking each value from vals; a
// per-layer metric with no value on this workload reads 0.
func fillMetrics(defs []metricDef, vals map[string]float64) map[string]metric {
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		m[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return m
}
