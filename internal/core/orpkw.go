package core

import (
	"sync"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/obs"
	"kwsc/internal/spart"
)

// ORPKW is the orthogonal-range-reporting-with-keywords index of Theorem 1:
// the kd-tree put through the transformation framework, operating in rank
// space (Step 4, Section 3.4). For d <= 2 it provides the paper's
// O(N)-space, O(N^{1-1/k} (1 + OUT^{1/k}))-query guarantee; for d >= 3 the
// same construction still answers correctly but its crossing sensitivity
// degrades as noted in Section 3.5 — use ORPKWHigh (Theorem 2) there.
type ORPKW struct {
	ds *dataset.Dataset
	rs *dataset.RankSpace
	fw *Framework

	fam    family     // metrics family (famNone when built with NoObs)
	tracer obs.Tracer // per-index tracer, may be nil

	// rqPool recycles rank-space query rectangles so the steady-state query
	// path allocates nothing; entries never leave this index's methods.
	rqPool sync.Pool
}

// BuildORPKW constructs the index for queries carrying exactly k keywords.
func BuildORPKW(ds *dataset.Dataset, k int, opts ...BuildOption) (*ORPKW, error) {
	return BuildORPKWWith(ds, k, resolveOpts(opts))
}

// BuildORPKWWith is BuildORPKW with an explicit options struct. Parallel
// and sequential builds answer every query identically.
func BuildORPKWWith(ds *dataset.Dataset, k int, opts BuildOpts) (*ORPKW, error) {
	if err := checkDataset(ds); err != nil {
		return nil, err
	}
	bt := obsBuildStart()
	rs := dataset.NewRankSpace(ds)
	pts := make([]geom.Point, ds.Len())
	for i := range pts {
		pts[i] = rs.RankPoint(int32(i))
	}
	fw, err := BuildFramework(ds, FrameworkConfig{
		K:           k,
		Splitter:    &spart.KD{Dim: ds.Dim()},
		Points:      pts,
		Parallelism: opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	ix := &ORPKW{ds: ds, rs: rs, fw: fw, fam: opts.famFor(famORPKW), tracer: opts.Tracer}
	ix.fw.space.AuxWords += rs.SpaceWords()
	obsBuildEnd(ix.fam, bt)
	return ix, nil
}

func (ix *ORPKW) getRankRect() *geom.Rect {
	if rq, ok := ix.rqPool.Get().(*geom.Rect); ok {
		return rq
	}
	d := ix.ds.Dim()
	return &geom.Rect{Lo: make([]float64, d), Hi: make([]float64, d)}
}

// Query reports every object in q whose document contains all keywords,
// converting q to rank space in O(log N) first.
func (ix *ORPKW) Query(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts, report func(int32)) (st QueryStats, err error) {
	qt := obsBegin(ix.fam, "Query", ix.tracer)
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError("ORPKW.Query", r, echoRegion(q, ws))
		}
		if obsEnd(ix.fam, qt, &st, err, ix.tracer) {
			obsSpan(ix.fam, "Query", echoRegion(q, ws), ix.fw.K(), qt, &st, err, ix.tracer)
		}
	}()
	if err := validateRect(q, ix.ds.Dim()); err != nil {
		return QueryStats{}, err
	}
	rq := ix.getRankRect()
	defer ix.rqPool.Put(rq)
	if !ix.rs.ToRankRectInto(q, rq) {
		// The rectangle misses every coordinate on some dimension.
		if err := ix.fw.checkQuery(ws); err != nil {
			return QueryStats{}, err
		}
		return QueryStats{}, nil
	}
	return ix.fw.Query(rq, ws, opts, report)
}

// Collect is Query returning a freshly allocated, caller-owned slice.
func (ix *ORPKW) Collect(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts) ([]int32, QueryStats, error) {
	return ix.CollectInto(q, ws, opts, nil)
}

// CollectInto is Collect appending into buf, reusing its capacity. With a
// warmed buffer the query path performs zero heap allocations; the returned
// slice aliases buf only, so the caller owns the result.
func (ix *ORPKW) CollectInto(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts, buf []int32) (out []int32, st QueryStats, err error) {
	qt := obsBegin(ix.fam, "CollectInto", ix.tracer)
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, newPanicError("ORPKW.CollectInto", r, echoRegion(q, ws))
		}
		if obsEnd(ix.fam, qt, &st, err, ix.tracer) {
			obsSpan(ix.fam, "CollectInto", echoRegion(q, ws), ix.fw.K(), qt, &st, err, ix.tracer)
		}
	}()
	if err := validateRect(q, ix.ds.Dim()); err != nil {
		return nil, QueryStats{}, err
	}
	rq := ix.getRankRect()
	defer ix.rqPool.Put(rq)
	if !ix.rs.ToRankRectInto(q, rq) {
		if err := ix.fw.checkQuery(ws); err != nil {
			return nil, QueryStats{}, err
		}
		return buf[:0], QueryStats{}, nil
	}
	return ix.fw.CollectInto(rq, ws, opts, buf)
}

// Framework exposes the underlying transformed index (for instrumentation).
func (ix *ORPKW) Framework() *Framework { return ix.fw }

// RankSpace exposes the rank conversion (for instrumentation and the NN
// searches of Corollary 4, which binary-search over rank-space rectangles).
func (ix *ORPKW) RankSpace() *dataset.RankSpace { return ix.rs }

// Space returns the analytic space audit.
func (ix *ORPKW) Space() SpaceBreakdown { return ix.fw.Space() }

// K returns the keyword arity.
func (ix *ORPKW) K() int { return ix.fw.K() }
