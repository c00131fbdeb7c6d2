package core

import (
	"fmt"
	"sort"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/obs"
)

// MultiK removes the paper's fixed-arity restriction for the flagship
// ORP-KW problem by maintaining one Theorem 1/Theorem 2 index per keyword
// arity in [2, KMax]: a query with j keywords routes to the j-arity index.
// Space multiplies by KMax-1 = O(1); each query keeps the bound of its own
// arity. Queries with a single keyword fall back to scanning that keyword's
// materialized root list via the k=2 index with a duplicate-free surrogate
// is impossible, so k=1 is answered by the dataset's inverted view.
type MultiK struct {
	ds      *dataset.Dataset
	byArity map[int]rectQuerier
	single  map[dataset.Keyword][]int32
	kMax    int

	fam    family
	tracer obs.Tracer
}

// BuildMultiK constructs indexes for every arity in [2, kMax].
func BuildMultiK(ds *dataset.Dataset, kMax int, opts ...BuildOption) (*MultiK, error) {
	if kMax < 2 {
		return nil, fmt.Errorf("core: kMax >= 2 required, got %d", kMax)
	}
	if kMax > 8 {
		return nil, fmt.Errorf("core: kMax %d unreasonably large (tensor space grows with arity)", kMax)
	}
	if err := checkDataset(ds); err != nil {
		return nil, err
	}
	o := resolveOpts(opts)
	bt := obsBuildStart()
	m := &MultiK{
		ds: ds, byArity: make(map[int]rectQuerier, kMax-1), kMax: kMax,
		fam: o.famFor(famMultiK), tracer: o.Tracer,
	}
	for k := 2; k <= kMax; k++ {
		var ix rectQuerier
		var err error
		// Per-arity indexes are routing targets, not user-visible indexes:
		// untagged, so each multi-k query is counted once under multik.
		if ds.Dim() <= 2 {
			ix, err = BuildORPKWWith(ds, k, o.inner())
		} else {
			ix, err = BuildORPKWHighWith(ds, k, o.inner())
		}
		if err != nil {
			return nil, fmt.Errorf("core: building arity-%d index: %w", k, err)
		}
		m.byArity[k] = ix
	}
	// Posting lists for arity-1 queries.
	m.single = make(map[dataset.Keyword][]int32)
	for i := 0; i < ds.Len(); i++ {
		for _, w := range ds.Doc(int32(i)) {
			m.single[w] = append(m.single[w], int32(i))
		}
	}
	obsBuildEnd(m.fam, bt)
	return m, nil
}

// KMax returns the largest supported arity.
func (m *MultiK) KMax() int { return m.kMax }

// Query answers a rectangle query with any number of keywords in [1, KMax].
func (m *MultiK) Query(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts, report func(int32)) (st QueryStats, err error) {
	qt := obsBegin(m.fam, "Query", m.tracer)
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError("MultiK.Query", r, echoRegion(q, ws))
		}
		if obsEnd(m.fam, qt, &st, err, m.tracer) {
			obsSpan(m.fam, "Query", echoRegion(q, ws), len(ws), qt, &st, err, m.tracer)
		}
	}()
	if e := validateRect(q, m.ds.Dim()); e != nil {
		return QueryStats{}, e
	}
	switch {
	case len(ws) == 0:
		return QueryStats{}, fmt.Errorf("%w: at least one keyword required", ErrInvalidQuery)
	case len(ws) == 1:
		opts = opts.normalized()
		ps := newPolState(opts.Policy)
		for _, id := range m.single[ws[0]] {
			st.Ops++
			if e := ps.check(&st, st.Ops); e != nil {
				return st, e
			}
			if q.ContainsPoint(m.ds.Point(id)) {
				report(id)
				st.Reported++
				if opts.Limit > 0 && st.Reported >= opts.Limit {
					st.Truncated = true
					break
				}
			}
			if opts.Budget > 0 && st.Ops > opts.Budget {
				st.BudgetHit = true
				break
			}
		}
		return st, nil
	case len(ws) > m.kMax:
		// Query the KMax index with a keyword subset and filter the rest:
		// still correct, and the subset bound N^{1-1/KMax} applies. The
		// inner index cannot see the filter, so the result limit is applied
		// here (the inner traversal may overshoot slightly).
		if err := dataset.ValidateKeywords(ws); err != nil {
			return QueryStats{}, fmt.Errorf("%w: %v", ErrInvalidQuery, err)
		}
		sub := append([]dataset.Keyword(nil), ws...)
		sort.Slice(sub, func(a, b int) bool { return sub[a] < sub[b] })
		head := sub[:m.kMax]
		rest := sub[m.kMax:]
		kept := 0
		innerOpts := opts
		innerOpts.Limit = 0
		st, err := m.byArity[m.kMax].Query(q, head, innerOpts, func(id int32) {
			if opts.Limit > 0 && kept >= opts.Limit {
				return
			}
			if m.ds.HasAll(id, rest) {
				report(id)
				kept++
			}
		})
		st.Reported = kept
		if opts.Limit > 0 && kept >= opts.Limit {
			st.Truncated = true
		}
		return st, err
	default:
		return m.byArity[len(ws)].Query(q, ws, opts, report)
	}
}

// Collect is Query returning a slice.
func (m *MultiK) Collect(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts) ([]int32, QueryStats, error) {
	return m.CollectInto(q, ws, opts, nil)
}

// CollectInto is Collect appending into buf, reusing its capacity; the
// returned slice aliases buf only.
func (m *MultiK) CollectInto(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts, buf []int32) ([]int32, QueryStats, error) {
	out := buf[:0]
	st, err := m.Query(q, ws, opts, func(id int32) { out = append(out, id) })
	return out, st, err
}

// K returns the largest supported arity (MultiK spans arities [1, KMax], so
// its unified-interface K is the ceiling, not a fixed per-query arity).
func (m *MultiK) K() int { return m.kMax }

// Space sums the audits of all arity indexes.
func (m *MultiK) Space() SpaceBreakdown {
	var total SpaceBreakdown
	for _, ix := range m.byArity {
		var s SpaceBreakdown
		switch v := ix.(type) {
		case *ORPKW:
			s = v.Space()
		case *ORPKWHigh:
			s = v.Space()
		}
		total.NodeWords += s.NodeWords
		total.PivotWords += s.PivotWords
		total.LargeWords += s.LargeWords
		total.MatWords += s.MatWords
		total.TensorBits += s.TensorBits
		total.AuxWords += s.AuxWords
	}
	for _, lst := range m.single {
		total.AuxWords += int64(len(lst))/2 + 1
	}
	return total
}
