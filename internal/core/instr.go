package core

import (
	"errors"
	"time"

	"kwsc/internal/obs"
)

// family identifies which index family a public entry point belongs to in
// the metrics registry. famNone means "not observed": composite indexes
// (RRKW over ORPKW, NN probes over ORPKW, dynamic buckets) build their inner
// indexes untagged so each user query is counted exactly once, at the entry
// point the caller invoked.
type family uint8

const (
	famNone family = iota
	famORPKW
	famORPKWHigh
	famRRKW
	famLCKW
	famSRPKW
	famLinfNN
	famL2NN
	famKSI
	famDynamic
	famCount
)

// famNames are the `family` label values in exported series.
var famNames = [famCount]string{
	famORPKW:     "orpkw",
	famORPKWHigh: "orpkw_high",
	famRRKW:      "rrkw",
	famLCKW:      "lckw",
	famSRPKW:     "srpkw",
	famLinfNN:    "linf_nn",
	famL2NN:      "l2_nn",
	famKSI:       "ksi",
	famDynamic:   "dynamic",
}

// famMeter holds one family's pre-resolved metric pointers. Resolution
// happens once at package init; per-query updates are atomic increments on
// these pointers and never touch the registry's name map.
type famMeter struct {
	queries     *obs.Counter
	errInvalid  *obs.Counter
	errDeadline *obs.Counter
	errBudget   *obs.Counter
	errCanceled *obs.Counter
	errPanic    *obs.Counter
	latencyNs   *obs.Histogram
	ops         *obs.Histogram
	nodes       *obs.Histogram
	builds      *obs.Counter
	buildNs     *obs.Histogram
}

var meters [famCount]famMeter

func init() {
	reg := obs.Default()
	for f := famNone + 1; f < famCount; f++ {
		n := famNames[f]
		lab := `{family="` + n + `"}`
		errLab := func(code string) string {
			return `kwsc_query_errors_total{family="` + n + `",code="` + code + `"}`
		}
		meters[f] = famMeter{
			queries:     reg.Counter("kwsc_queries_total" + lab),
			errInvalid:  reg.Counter(errLab("invalid")),
			errDeadline: reg.Counter(errLab("deadline")),
			errBudget:   reg.Counter(errLab("budget")),
			errCanceled: reg.Counter(errLab("canceled")),
			errPanic:    reg.Counter(errLab("panic")),
			latencyNs:   reg.Histogram("kwsc_query_latency_ns" + lab),
			ops:         reg.Histogram("kwsc_query_ops" + lab),
			nodes:       reg.Histogram("kwsc_query_nodes" + lab),
			builds:      reg.Counter("kwsc_builds_total" + lab),
			buildNs:     reg.Histogram("kwsc_build_ns" + lab),
		}
	}
}

// Cross-family metrics: dynamic-index churn (Bentley–Saxe health). Gauges
// are updated with deltas so several indexes share them coherently as fleet
// totals.
var (
	dynInserts    = obs.Default().Counter("kwsc_dynamic_inserts_total")
	dynDeletes    = obs.Default().Counter("kwsc_dynamic_deletes_total")
	dynCarries    = obs.Default().Counter("kwsc_dynamic_carries_total")
	dynRebuilds   = obs.Default().Counter("kwsc_dynamic_rebuilds_total")
	dynBuckets    = obs.Default().Gauge("kwsc_dynamic_buckets")
	dynLive       = obs.Default().Gauge("kwsc_dynamic_live_objects")
	dynBuffered   = obs.Default().Gauge("kwsc_dynamic_buffered")
	dynTombstones = obs.Default().Gauge("kwsc_dynamic_tombstones")

	// Copy-on-write state publication and MVCC snapshot health: one publish
	// per applied mutation (there are no retries — publication is serialized
	// on the writer mutex, so the counter doubles as the applied-op count),
	// one pin per SnapshotNow, and one staleness observation per pinned
	// query (ops between its seq and its index's head seq at query time), a
	// histogram as kwsc_repl_lag_seq is, so that every index's lag lands.
	dynPublishes     = obs.Default().Counter("kwsc_dynamic_state_publishes_total")
	dynSnapshotPins  = obs.Default().Counter("kwsc_dynamic_snapshot_pins_total")
	dynSnapStaleness = obs.Default().Histogram("kwsc_dynamic_snapshot_staleness_ops")
)

// errCounter maps a typed query error to its per-family counter (nil for
// success or unclassified errors; those still count in queries).
func (m *famMeter) errCounter(err error) *obs.Counter {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrInvalidQuery):
		return m.errInvalid
	case errors.Is(err, ErrDeadline):
		return m.errDeadline
	case errors.Is(err, ErrBudget):
		return m.errBudget
	case errors.Is(err, ErrCanceled):
		return m.errCanceled
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return m.errPanic
	}
	return nil
}

// outcomeOf classifies an error for span reporting.
func outcomeOf(err error) obs.Outcome {
	switch {
	case err == nil:
		return obs.OutcomeOK
	case errors.Is(err, ErrInvalidQuery):
		return obs.OutcomeInvalid
	case errors.Is(err, ErrDeadline):
		return obs.OutcomeDeadline
	case errors.Is(err, ErrBudget):
		return obs.OutcomeBudget
	case errors.Is(err, ErrCanceled):
		return obs.OutcomeCanceled
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return obs.OutcomePanic
	}
	return obs.OutcomeError
}

// obsBegin marks entry into an instrumented query method: it returns the
// start time, or the zero Time when nothing is observing this index
// (untagged family, or metrics and tracing both off). The zero return
// short-circuits obsEnd, so a disarmed query pays one atomic load and no
// clock read.
func obsBegin(fam family) time.Time {
	if fam == famNone || !obs.Armed() {
		return time.Time{}
	}
	return time.Now()
}

// obsEnd records a finished query into the registry — atomics only, no
// allocation — and reports whether the caller must also emit a span (a
// tracer is installed). Span emission is separate so the query echo is only
// formatted off the metrics-only hot path.
func obsEnd(fam family, start time.Time, st *QueryStats, err error) bool {
	if start.IsZero() {
		return false
	}
	if obs.MetricsEnabled() {
		m := &meters[fam]
		m.queries.Inc()
		if c := m.errCounter(err); c != nil {
			c.Inc()
		}
		m.latencyNs.Observe(int64(time.Since(start)))
		m.ops.Observe(st.Ops)
		m.nodes.Observe(int64(st.NodesVisited))
	}
	return obs.ActiveTracer() != nil
}

// obsSpan builds and emits the end-of-query span to the process-wide
// tracer. Callers invoke it only when obsEnd returned true; echo is the
// human-readable query (echoRegion-style), formatted by the caller at that
// point and not before.
func obsSpan(fam family, op, echo string, k int, start time.Time, st *QueryStats, err error) {
	t := obs.ActiveTracer()
	if t == nil {
		return
	}
	t.End(obs.Span{
		Family:  famNames[fam],
		Op:      op,
		Query:   echo,
		K:       k,
		Out:     st.Reported,
		Ops:     st.Ops,
		Nodes:   st.NodesVisited,
		Elapsed: time.Since(start),
		Outcome: outcomeOf(err),
		Err:     err,
	})
}

// obsBuildStart/obsBuildEnd time index construction. Composite indexes
// build their inner structures with NoObs, so each user-visible Build call
// is counted once under the family the caller asked for.
func obsBuildStart() time.Time {
	if !obs.MetricsEnabled() {
		return time.Time{}
	}
	return time.Now()
}

func obsBuildEnd(fam family, start time.Time) {
	if fam == famNone || start.IsZero() || !obs.MetricsEnabled() {
		return
	}
	m := &meters[fam]
	m.builds.Inc()
	m.buildNs.Observe(int64(time.Since(start)))
}
