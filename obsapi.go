package kwsc

// Observability surface: a process-wide metrics registry fed by every index
// family and one optional process-wide tracer. Both are zero-dependency and
// cheap enough to leave on in production — the metrics path is atomic
// increments on pre-resolved counters, and the query hot paths stay
// allocation-free with the registry enabled (see the MetricsOn/MetricsOff
// benchmark pair and the alloc guard).
//
//	reg := kwsc.Metrics()                       // snapshot, a plain struct
//	fmt.Println(reg.Counter(`kwsc_queries_total{family="orpkw"}`))
//	kwsc.WriteMetricsPrometheus(os.Stdout)      // Prometheus text format
//	kwsc.SetTracer(t)                           // t.End(span) after every query

import (
	"io"

	"kwsc/internal/obs"
)

// Tracing and metrics types.
type (
	// Tracer observes query execution: End receives the completed Span of
	// every instrumented query method. Install it with SetTracer. End may be
	// called concurrently and must be cheap or buffer internally.
	Tracer = obs.Tracer
	// Span is one completed query: family, operation, echoed query, arity,
	// result count, work, latency, and the policy outcome.
	Span = obs.Span
	// Outcome classifies how a query ended ("ok", "deadline", "budget",
	// "canceled", "invalid", "panic", "error").
	Outcome = obs.Outcome
	// MetricsSnapshot is a point-in-time copy of the registry: plain maps of
	// counters, gauges, and histograms keyed by series name.
	MetricsSnapshot = obs.Snapshot
	// HistogramSnapshot is one histogram's cumulative bucket counts.
	HistogramSnapshot = obs.HistSnapshot
)

// Query outcomes reported in spans.
const (
	OutcomeOK       = obs.OutcomeOK
	OutcomeInvalid  = obs.OutcomeInvalid
	OutcomeDeadline = obs.OutcomeDeadline
	OutcomeBudget   = obs.OutcomeBudget
	OutcomeCanceled = obs.OutcomeCanceled
	OutcomePanic    = obs.OutcomePanic
	OutcomeError    = obs.OutcomeError
)

// Metrics returns a snapshot of the process-wide registry: per-family query
// and error counters, latency/work histograms, build times, dynamic-index
// churn, and fallback counts.
func Metrics() MetricsSnapshot { return obs.Default().Snapshot() }

// EnableMetrics turns registry updates on or off process-wide. Metrics are
// on by default; turning them off reduces the per-query overhead to one
// atomic load.
func EnableMetrics(on bool) { obs.SetMetricsEnabled(on) }

// MetricsEnabled reports whether registry updates are on.
func MetricsEnabled() bool { return obs.MetricsEnabled() }

// SetTracer installs t as the process-wide tracer receiving a Span for every
// query on every instrumented index; nil uninstalls.
func SetTracer(t Tracer) { obs.SetTracer(t) }

// WriteMetricsJSON writes the current registry snapshot as indented JSON
// (expvar-style: one object with counters, gauges, and histograms).
func WriteMetricsJSON(w io.Writer) error { return obs.Default().Snapshot().WriteJSON(w) }

// WriteMetricsPrometheus writes the current registry snapshot in the
// Prometheus text exposition format (counters and gauges as-is, histograms
// as cumulative _bucket/_sum/_count series).
func WriteMetricsPrometheus(w io.Writer) error {
	return obs.Default().Snapshot().WritePrometheus(w)
}
