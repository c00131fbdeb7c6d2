package core

import (
	"fmt"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/obs"
	"kwsc/internal/spart"
)

// SPKW is the simplex/linear-conjunction reporting index of Theorem 12 and
// Theorem 5 (Appendix D): a partition tree put through the transformation
// framework, on raw coordinates. The splitter is the Willard ham-sandwich
// partition tree for d = 2 and the box tree for d >= 3 (see DESIGN.md,
// substitution 1, for how these stand in for Chan's optimal partition tree).
// One index answers all of:
//
//   - SP-KW: a d-simplex plus keywords (QuerySimplex);
//   - LC-KW: s = O(1) linear constraints plus keywords (QueryConstraints) —
//     the paper triangulates the constraint polyhedron into simplices, but
//     the framework's cell tests work on any convex region, so the
//     polyhedron is queried directly, avoiding boundary double-reporting;
//   - any convex Region (QueryRegion), which the SRP-KW ablation uses to run
//     sphere queries without lifting.
type SPKW struct {
	ds *dataset.Dataset
	fw *Framework

	fam    family
	tracer obs.Tracer
}

// SPKWConfig controls construction.
type SPKWConfig struct {
	// K is the query keyword arity (k >= 2).
	K int
	// Splitter overrides the default substrate (Willard2D for d == 2,
	// Box otherwise). The Grid2D splitter plugs in here for the E6b
	// crossing-sensitivity ablation.
	Splitter spart.Splitter
	// Points overrides the partitioning coordinates (the lifting reduction
	// of Corollary 6 passes lifted points of dimension d+1).
	Points []geom.Point
	// Build tunes construction (parallelism); the zero value uses every
	// core.
	Build BuildOpts
}

// BuildSPKW constructs the index.
func BuildSPKW(ds *dataset.Dataset, cfg SPKWConfig) (*SPKW, error) {
	if err := checkDataset(ds); err != nil {
		return nil, err
	}
	bt := obsBuildStart()
	dim := ds.Dim()
	if cfg.Points != nil {
		dim = len(cfg.Points[0])
	}
	split := cfg.Splitter
	if split == nil {
		if dim == 2 {
			split = &spart.Willard2D{}
		} else {
			split = &spart.Box{Dim: dim}
		}
	}
	fw, err := BuildFramework(ds, FrameworkConfig{
		K:           cfg.K,
		Splitter:    split,
		Points:      cfg.Points,
		Parallelism: cfg.Build.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	ix := &SPKW{ds: ds, fw: fw, fam: cfg.Build.famFor(famLCKW), tracer: cfg.Build.Tracer}
	obsBuildEnd(ix.fam, bt)
	return ix, nil
}

// QuerySimplex answers an SP-KW query: report the objects inside the
// d-simplex whose documents contain all keywords.
func (ix *SPKW) QuerySimplex(s *geom.Simplex, ws []dataset.Keyword, opts QueryOpts, report func(int32)) (st QueryStats, err error) {
	qt := obsBegin(ix.fam, "QuerySimplex", ix.tracer)
	defer func() {
		if obsEnd(ix.fam, qt, &st, err, ix.tracer) {
			obsSpan(ix.fam, "QuerySimplex", echoQuery(s, ws), ix.fw.K(), qt, &st, err, ix.tracer)
		}
	}()
	ph, err := s.Polyhedron()
	if err != nil {
		return QueryStats{}, err
	}
	return ix.fw.Query(ph, ws, opts, report)
}

// QueryConstraints answers an LC-KW query: report the objects satisfying
// every linear constraint whose documents contain all keywords.
func (ix *SPKW) QueryConstraints(hs []geom.Halfspace, ws []dataset.Keyword, opts QueryOpts, report func(int32)) (st QueryStats, err error) {
	qt := obsBegin(ix.fam, "QueryConstraints", ix.tracer)
	defer func() {
		if obsEnd(ix.fam, qt, &st, err, ix.tracer) {
			obsSpan(ix.fam, "QueryConstraints", echoQuery(hs, ws), ix.fw.K(), qt, &st, err, ix.tracer)
		}
	}()
	if err := validateHalfspaces(hs, ix.fw.PointDim()); err != nil {
		return QueryStats{}, err
	}
	return ix.fw.Query(geom.NewPolyhedron(hs...), ws, opts, report)
}

// QueryRegion answers a query against an arbitrary convex region.
func (ix *SPKW) QueryRegion(q geom.Region, ws []dataset.Keyword, opts QueryOpts, report func(int32)) (st QueryStats, err error) {
	qt := obsBegin(ix.fam, "QueryRegion", ix.tracer)
	defer func() {
		if obsEnd(ix.fam, qt, &st, err, ix.tracer) {
			obsSpan(ix.fam, "QueryRegion", echoRegion(q, ws), ix.fw.K(), qt, &st, err, ix.tracer)
		}
	}()
	return ix.fw.Query(q, ws, opts, report)
}

// CollectConstraints is QueryConstraints returning a freshly allocated,
// caller-owned slice.
func (ix *SPKW) CollectConstraints(hs []geom.Halfspace, ws []dataset.Keyword, opts QueryOpts) ([]int32, QueryStats, error) {
	return ix.CollectConstraintsInto(hs, ws, opts, nil)
}

// CollectConstraintsInto is CollectConstraints appending into buf, reusing
// its capacity; the returned slice aliases buf only.
func (ix *SPKW) CollectConstraintsInto(hs []geom.Halfspace, ws []dataset.Keyword, opts QueryOpts, buf []int32) (out []int32, st QueryStats, err error) {
	qt := obsBegin(ix.fam, "CollectConstraintsInto", ix.tracer)
	defer func() {
		if obsEnd(ix.fam, qt, &st, err, ix.tracer) {
			obsSpan(ix.fam, "CollectConstraintsInto", echoQuery(hs, ws), ix.fw.K(), qt, &st, err, ix.tracer)
		}
	}()
	if err := validateHalfspaces(hs, ix.fw.PointDim()); err != nil {
		return nil, QueryStats{}, err
	}
	return ix.fw.CollectInto(geom.NewPolyhedron(hs...), ws, opts, buf)
}

// Query, Collect, and CollectInto are the unified-interface names for the
// constraint-conjunction query: SPKW's query shape is a halfspace list the
// way ORPKW's is a rectangle, so the aliases let SPKW satisfy
// Index[[]Halfspace] (see the facade's index.go) without a wrapper type.

// Query is QueryConstraints under the unified Index method name.
func (ix *SPKW) Query(hs []geom.Halfspace, ws []dataset.Keyword, opts QueryOpts, report func(int32)) (QueryStats, error) {
	return ix.QueryConstraints(hs, ws, opts, report)
}

// Collect is CollectConstraints under the unified Index method name.
func (ix *SPKW) Collect(hs []geom.Halfspace, ws []dataset.Keyword, opts QueryOpts) ([]int32, QueryStats, error) {
	return ix.CollectConstraints(hs, ws, opts)
}

// CollectInto is CollectConstraintsInto under the unified Index method name.
func (ix *SPKW) CollectInto(hs []geom.Halfspace, ws []dataset.Keyword, opts QueryOpts, buf []int32) ([]int32, QueryStats, error) {
	return ix.CollectConstraintsInto(hs, ws, opts, buf)
}

// Framework exposes the underlying transformed index.
func (ix *SPKW) Framework() *Framework { return ix.fw }

// Space returns the analytic space audit.
func (ix *SPKW) Space() SpaceBreakdown { return ix.fw.Space() }

// K returns the keyword arity.
func (ix *SPKW) K() int { return ix.fw.K() }

// QueryConstraintsViaSimplices answers an LC-KW query the way the paper's
// Appendix D reduction describes it: materialize the constraint polyhedron
// (clipped to the data's bounding box), partition it into simplices, query
// each, and de-duplicate objects on shared triangle edges. It returns the
// same results as QueryConstraints, which queries the polyhedron directly;
// both are exposed so the reduction itself is testable. Only d = 2 is
// supported (the materialization uses polygon clipping).
func (ix *SPKW) QueryConstraintsViaSimplices(hs []geom.Halfspace, ws []dataset.Keyword, report func(int32)) (QueryStats, error) {
	if ix.ds.Dim() != 2 {
		return QueryStats{}, fmt.Errorf("core: simplex-partition route supports d=2 only, dataset has d=%d", ix.ds.Dim())
	}
	if len(hs) == 0 {
		return QueryStats{}, fmt.Errorf("core: LC-KW query needs at least one constraint")
	}
	pts := make([]geom.Point, ix.ds.Len())
	for i := range pts {
		pts[i] = ix.ds.Point(int32(i))
	}
	bound := geom.BoundingRect(pts)
	pad := 1.0
	for j := range bound.Lo {
		bound.Lo[j] -= pad
		bound.Hi[j] += pad
	}
	poly := geom.ClipPolyhedron2D(geom.NewPolyhedron(hs...), bound)
	var total QueryStats
	seen := make(map[int32]struct{})
	for _, tri := range poly.FanTriangulate() {
		st, err := ix.QuerySimplex(tri, ws, QueryOpts{}, func(id int32) {
			if _, dup := seen[id]; dup {
				return
			}
			seen[id] = struct{}{}
			report(id)
		})
		total.add(st)
		if err != nil {
			return total, err
		}
	}
	total.Reported = len(seen)
	return total, nil
}
