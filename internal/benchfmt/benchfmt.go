// Package benchfmt is the committed benchmark snapshot schema, shared by
// cmd/benchsave (micro-benchmark records parsed from `go test -bench`
// output) and cmd/kwsload (serving measurements: QPS, tail latency, and
// goodput-under-overload curves). Keeping the schema in one package means a
// BENCH_*.json baseline can hold both kinds of measurement and every tool
// agrees on the field names.
//
// The schema is additive: fields are never removed or repurposed, and
// readers must accept files missing any of the newer sections.
package benchfmt

import "encoding/json"

// Record is one micro-benchmark measurement. BytesResident captures the
// custom "bytes-resident" metric the flat-layout benchmarks report via
// b.ReportMetric: the live heap the built index retains, as opposed to
// B/op allocation churn.
type Record struct {
	Name          string  `json:"name"`
	Iterations    int64   `json:"iterations"`
	NsPerOp       float64 `json:"ns_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp   int64   `json:"allocs_per_op,omitempty"`
	BytesResident int64   `json:"bytes_resident,omitempty"`
}

// ServeRecord is one load-test step against a running kwscd: a fixed client
// concurrency driven closed-loop for a fixed duration. A sweep of steps at
// increasing concurrency forms the goodput curve — under graceful
// degradation GoodputQPS should plateau (not collapse) as offered load
// passes capacity, with the excess turned away as Shed.
type ServeRecord struct {
	// Name labels the step (e.g. "query-c8" for 8 query clients).
	Name string `json:"name"`
	// Concurrency is the number of closed-loop clients in the step.
	Concurrency int `json:"concurrency"`
	// DurationSec is the measured wall-clock length of the step.
	DurationSec float64 `json:"duration_sec"`

	// Requests counts everything sent; OK the 200s, Shed the 429s,
	// Errors everything else (including transport failures).
	Requests int64 `json:"requests"`
	OK       int64 `json:"ok"`
	Shed     int64 `json:"shed"`
	Errors   int64 `json:"errors"`
	// Degraded and Truncated count OK responses carrying those flags.
	Degraded  int64 `json:"degraded,omitempty"`
	Truncated int64 `json:"truncated,omitempty"`

	// QPS is Requests/DurationSec (offered, as seen by the server);
	// GoodputQPS is OK/DurationSec — completed, non-shed work.
	QPS        float64 `json:"qps"`
	GoodputQPS float64 `json:"goodput_qps"`

	// Latency percentiles over the OK responses, in microseconds.
	P50Us  int64 `json:"p50_us"`
	P99Us  int64 `json:"p99_us"`
	P999Us int64 `json:"p999_us"`
}

// SnapshotFile is the on-disk schema: micro-benchmark records, serving
// measurements, and the metrics registry the run emitted (the
// `# kwsc-metrics:` line TestMain prints under -bench). Any section may be
// absent.
type SnapshotFile struct {
	Records []Record        `json:"records,omitempty"`
	Serve   []ServeRecord   `json:"serve,omitempty"`
	Metrics json.RawMessage `json:"metrics,omitempty"`
}
