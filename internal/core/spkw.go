package core

import (
	"fmt"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/spart"
)

// SPKW is the simplex/linear-conjunction reporting index of Theorem 12 and
// Theorem 5 (Appendix D): a partition tree put through the transformation
// framework, on raw coordinates. The splitter is the Willard ham-sandwich
// partition tree for d = 2 and the kd tree otherwise (see DESIGN.md,
// substitution 1, for how these stand in for Chan's optimal partition tree).
// Its query shape is a conjunction of s = O(1) linear constraints (LC-KW).
// The paper triangulates the constraint polyhedron into simplices, but the
// framework's cell tests work on any convex region, so the polyhedron is
// queried directly, avoiding boundary double-reporting. An SP-KW query is
// the conjunction of a simplex's facets (Simplex.Polyhedron), and any other
// convex region goes through Framework().Query, as the SRP-KW ablation runs
// sphere queries without lifting.
type SPKW struct {
	fw *Framework

	fam family
}

// SPKWConfig controls construction.
type SPKWConfig struct {
	// K is the query keyword arity (k >= 2).
	K int
	// Splitter overrides the default substrate (Willard2D for d == 2,
	// KD otherwise). The Grid2D splitter plugs in here for the E6b
	// crossing-sensitivity ablation.
	Splitter spart.Splitter
	// Points overrides the partitioning coordinates (the lifting reduction
	// of Corollary 6 passes lifted points of dimension d+1).
	Points []geom.Point
}

// BuildSPKW constructs the index.
func BuildSPKW(ds *dataset.Dataset, cfg SPKWConfig, opts ...BuildOption) (*SPKW, error) {
	return buildSPKW(ds, cfg, resolveOpts(opts))
}

// buildSPKW is BuildSPKW with resolved options.
func buildSPKW(ds *dataset.Dataset, cfg SPKWConfig, opts BuildOpts) (*SPKW, error) {
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
			split = &spart.KD{Dim: dim}
		}
	}
	fw, err := BuildFramework(ds, FrameworkConfig{
		K:        cfg.K,
		Splitter: split,
		Points:   cfg.Points,
		gate:     newParGate(opts.Parallelism),
	})
	if err != nil {
		return nil, err
	}
	ix := &SPKW{fw: fw, fam: opts.famFor(famLCKW)}
	obsBuildEnd(ix.fam, bt)
	return ix, nil
}

// Query answers an LC-KW query: report the objects satisfying every linear
// constraint whose documents contain all keywords.
func (ix *SPKW) Query(hs []geom.Halfspace, ws []dataset.Keyword, opts QueryOpts, report func(int32)) (st QueryStats, err error) {
	qt := obsBegin(ix.fam)
	defer func() {
		if obsEnd(ix.fam, qt, &st, err) {
			obsSpan(ix.fam, "Query", echoQuery(hs, ws), ix.fw.K(), qt, &st, err)
		}
	}()
	if err := validateHalfspaces(hs, ix.fw.PointDim()); err != nil {
		return QueryStats{}, err
	}
	return ix.fw.Query(geom.NewPolyhedron(hs...), ws, opts, report)
}

// CollectInto is Query returning the ids, with Framework.CollectInto's
// buffer contract.
func (ix *SPKW) CollectInto(hs []geom.Halfspace, ws []dataset.Keyword, opts QueryOpts, buf []int32) (out []int32, st QueryStats, err error) {
	qt := obsBegin(ix.fam)
	defer func() {
		if obsEnd(ix.fam, qt, &st, err) {
			obsSpan(ix.fam, "CollectInto", echoQuery(hs, ws), ix.fw.K(), qt, &st, err)
		}
	}()
	if err := validateHalfspaces(hs, ix.fw.PointDim()); err != nil {
		return nil, QueryStats{}, err
	}
	return ix.fw.CollectInto(geom.NewPolyhedron(hs...), ws, opts, buf)
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
// same results as Query, which queries the polyhedron directly;
// both are exposed so the reduction itself is testable. Only d = 2 is
// supported (the materialization uses polygon clipping), in the coordinates
// the index compares.
func (ix *SPKW) QueryConstraintsViaSimplices(hs []geom.Halfspace, ws []dataset.Keyword, report func(int32)) (QueryStats, error) {
	if ix.fw.pdim != 2 {
		return QueryStats{}, fmt.Errorf("core: simplex-partition route supports d=2 only, the index compares d=%d", ix.fw.pdim)
	}
	if len(hs) == 0 {
		return QueryStats{}, fmt.Errorf("core: LC-KW query needs at least one constraint")
	}
	pts := make([]geom.Point, ix.fw.rows.Len())
	for r := range pts {
		pts[r] = ix.fw.rows.Point(int32(r))
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
		ph, err := tri.Polyhedron()
		if err != nil {
			return total, err
		}
		st, err := ix.fw.Query(ph, ws, QueryOpts{}, func(id int32) {
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
