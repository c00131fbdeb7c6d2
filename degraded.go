package kwsc

import (
	"errors"
	"sync/atomic"

	"kwsc/internal/core"
	"kwsc/internal/invidx"
	"kwsc/internal/obs"
)

// fallbacksTotal counts degraded-mode fallbacks process-wide; each Degraded
// instance also keeps its own FallbackCount.
var fallbacksTotal = obs.Default().Counter("kwsc_fallbacks_total")

// Degraded answers rectangle+keywords queries through the paper's index but
// falls back to the inverted-index baseline when the index path degrades: a
// node-budget stop (the traversal is pathologically expensive for this
// query) or a recovered index-internal panic (the traversal cannot be
// trusted). The baseline's posting-list intersection is slower but has a
// predictable O(N) cost and no shared state with the tree, so the fallback
// returns the exact full answer; QueryStats.Fallback records that it ran.
//
// Deadline and cancellation stops do NOT trigger fallback — the caller asked
// to give up at that wall-clock point, and the baseline would blow through
// it too. Validation errors surface unchanged: the query itself is broken.
type Degraded struct {
	ds  *Dataset
	ix  rectCollector
	k   int
	inv *invidx.Index // the fallback path, exposed via Baseline()

	fallbacks atomic.Int64
}

// rectCollector is the slice of the index API Degraded needs; both ORPKW and
// ORPKWHigh satisfy it.
type rectCollector interface {
	CollectInto(q *Rect, ws []Keyword, opts QueryOpts, buf []int32) ([]int32, QueryStats, error)
	EstimateWork(ws []Keyword) int64
}

// NewDegraded builds the primary index (Theorem 1 for d <= 2, Theorem 2
// otherwise) plus the inverted-index fallback for k-keyword queries.
// Construction options (WithParallelism, WithTracer, ...) apply to the
// primary index; the fallback is always the plain baseline.
func NewDegraded(ds *Dataset, k int, opts ...Option) (*Degraded, error) {
	var ix rectCollector
	var err error
	if ds.Dim() <= 2 {
		ix, err = core.BuildORPKW(ds, k, opts...)
	} else {
		ix, err = core.BuildORPKWHigh(ds, k, opts...)
	}
	if err != nil {
		return nil, err
	}
	return &Degraded{ds: ds, ix: ix, k: k, inv: invidx.Build(ds)}, nil
}

// Collect answers the query, degrading to the baseline on budget exhaustion
// or index panic. On fallback the returned stats carry Fallback=true, the
// Ops spent on both attempts, and no error; Limit/MaxResults still cap the
// fallback's answer (with Truncated set).
func (d *Degraded) Collect(q *Rect, ws []Keyword, opts QueryOpts) ([]int32, QueryStats, error) {
	return d.CollectInto(q, ws, opts, nil)
}

// CollectInto is Collect appending into buf, reusing its capacity; the
// returned slice aliases buf only.
func (d *Degraded) CollectInto(q *Rect, ws []Keyword, opts QueryOpts, buf []int32) ([]int32, QueryStats, error) {
	ids, st, err := d.ix.CollectInto(q, ws, opts, buf)
	if err == nil {
		return ids, st, nil
	}
	var pe *PanicError
	if !errors.Is(err, ErrBudget) && !errors.As(err, &pe) {
		return ids, st, err
	}
	d.fallbacks.Add(1)
	if obs.MetricsEnabled() {
		fallbacksTotal.Inc()
	}
	full := d.inv.KeywordsOnly(q, ws)
	fst := QueryStats{Fallback: true, Ops: st.Ops + d.inv.ScanCost(ws), Reported: len(full)}
	limit := opts.Limit
	if opts.Policy.MaxResults > 0 && (limit == 0 || opts.Policy.MaxResults < limit) {
		limit = opts.Policy.MaxResults
	}
	if limit > 0 && len(full) > limit {
		full = full[:limit]
		fst.Reported = limit
		fst.Truncated = true
	}
	return append(buf[:0], full...), fst, nil
}

// Query streams the answer to report, with the same fallback semantics as
// Collect. (The fallback materializes internally, so Query exists for
// interface uniformity, not streaming economy.)
func (d *Degraded) Query(q *Rect, ws []Keyword, opts QueryOpts, report func(int32)) (QueryStats, error) {
	ids, st, err := d.CollectInto(q, ws, opts, nil)
	for _, id := range ids {
		report(id)
	}
	return st, err
}

// EstimateWork bounds the work units (QueryStats.Ops) the primary index
// spends on ws, read off its root in O(k) without touching the tree — what a
// caller fanning out over several indexes needs to decide whether a query is
// worth a goroutine. A budget stop's fallback scan is not priced in.
func (d *Degraded) EstimateWork(ws []Keyword) int64 { return d.ix.EstimateWork(ws) }

// K returns the keyword arity queries must carry.
func (d *Degraded) K() int { return d.k }

// FallbackCount returns how many queries have degraded to the baseline since
// construction (concurrency-safe).
func (d *Degraded) FallbackCount() int64 { return d.fallbacks.Load() }

// Baseline exposes the inverted-index fallback.
func (d *Degraded) Baseline() *InvertedIndex { return d.inv }

// compile-time interface checks for the two primary index shapes.
var (
	_ rectCollector = (*core.ORPKW)(nil)
	_ rectCollector = (*core.ORPKWHigh)(nil)
)
