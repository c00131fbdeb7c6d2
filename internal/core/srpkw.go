package core

import (
	"fmt"
	"math"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

// SRPKW is the spherical-range-reporting-with-keywords index of Corollary 6:
// points are lifted to the paraboloid in R^{d+1} (Appendix F), turning a
// d-dimensional sphere query into a single-halfspace LC-KW query answered by
// the SP-KW index in dimension d+1.
type SRPKW struct {
	ds  *dataset.Dataset
	sp  *SPKW
	dim int

	fam family
}

// BuildSRPKW constructs the lifted index for k-keyword queries.
func BuildSRPKW(ds *dataset.Dataset, k int, opts ...BuildOption) (*SRPKW, error) {
	return buildSRPKW(ds, k, resolveOpts(opts))
}

// buildSRPKW is BuildSRPKW with resolved options.
func buildSRPKW(ds *dataset.Dataset, k int, opts BuildOpts) (*SRPKW, error) {
	if err := checkDataset(ds); err != nil {
		return nil, err
	}
	bt := obsBuildStart()
	lifted := make([]geom.Point, ds.Len())
	for i := range lifted {
		lifted[i] = geom.Lift(ds.Point(int32(i)))
	}
	// The lifted SP-KW index is internal to the reduction: untagged, so each
	// sphere query is counted once as srpkw.
	sp, err := buildSPKW(ds, SPKWConfig{K: k, Points: lifted}, opts.inner())
	if err != nil {
		return nil, err
	}
	ix := &SRPKW{ds: ds, sp: sp, dim: ds.Dim(), fam: opts.famFor(famSRPKW)}
	obsBuildEnd(ix.fam, bt)
	return ix, nil
}

// Query reports every object inside the sphere whose document contains all
// keywords.
func (ix *SRPKW) Query(s *geom.Sphere, ws []dataset.Keyword, opts QueryOpts, report func(int32)) (st QueryStats, err error) {
	qt := obsBegin(ix.fam)
	defer func() {
		if obsEnd(ix.fam, qt, &st, err) {
			obsSpan(ix.fam, "Query", echoRegion(s, ws), ix.sp.K(), qt, &st, err)
		}
	}()
	if err := validateSphere(s, ix.dim); err != nil {
		return QueryStats{}, err
	}
	hs := geom.LiftSphere(s)
	return ix.sp.Query([]geom.Halfspace{hs}, ws, opts, report)
}

// QuerySq is Query for a sphere given by its squared radius; the L2NN-KW
// search of Corollary 7 uses it to binary-search exact integer squared
// distances.
func (ix *SRPKW) QuerySq(center geom.Point, radiusSq float64, ws []dataset.Keyword, opts QueryOpts, report func(int32)) (st QueryStats, err error) {
	qt := obsBegin(ix.fam)
	defer func() {
		if obsEnd(ix.fam, qt, &st, err) {
			obsSpan(ix.fam, "QuerySq", echoQuery(center, ws), ix.sp.K(), qt, &st, err)
		}
	}()
	if err := validatePoint(center, ix.dim); err != nil {
		return QueryStats{}, err
	}
	if math.IsNaN(radiusSq) || radiusSq < 0 {
		return QueryStats{}, fmt.Errorf("%w: squared radius %v", ErrInvalidQuery, radiusSq)
	}
	hs := geom.LiftSphereSq(center, radiusSq)
	return ix.sp.Query([]geom.Halfspace{hs}, ws, opts, report)
}

// CollectInto is Query returning the ids, with Framework.CollectInto's
// buffer contract.
func (ix *SRPKW) CollectInto(s *geom.Sphere, ws []dataset.Keyword, opts QueryOpts, buf []int32) (out []int32, st QueryStats, err error) {
	qt := obsBegin(ix.fam)
	defer func() {
		if obsEnd(ix.fam, qt, &st, err) {
			obsSpan(ix.fam, "CollectInto", echoRegion(s, ws), ix.sp.K(), qt, &st, err)
		}
	}()
	if err := validateSphere(s, ix.dim); err != nil {
		return nil, QueryStats{}, err
	}
	hs := geom.LiftSphere(s)
	return ix.sp.CollectInto([]geom.Halfspace{hs}, ws, opts, buf)
}

// Space returns the analytic space audit.
func (ix *SRPKW) Space() SpaceBreakdown { return ix.sp.Space() }

// K returns the keyword arity.
func (ix *SRPKW) K() int { return ix.sp.K() }
