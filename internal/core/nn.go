package core

import (
	"fmt"
	"math"
	"sort"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

// rectQuerier is the ORP-KW capability both nearest-neighbor searches build
// on (Theorem 1's index for d <= 2, Theorem 2's for d >= 3).
type rectQuerier interface {
	Query(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts, report func(int32)) (QueryStats, error)
}

// NNResult is one reported neighbor.
type NNResult struct {
	ID   int32
	Dist float64 // under the search's metric (L-infinity or L2)
}

// NNStats aggregates the instrumentation of all probe queries issued by one
// nearest-neighbor search: the embedded QueryStats sums the stats of every
// probe, so NN searches report work the same way the rest of the catalog
// does (st.Ops, st.NodesVisited, ...).
type NNStats struct {
	Probes int // range queries issued (the paper's O(log N) factor)
	QueryStats
}

// LinfNN is the L∞-nearest-neighbor-with-keywords index of Corollary 4: an
// ORP-KW index plus, per dimension, the sorted coordinate array that yields
// the O(N) candidate radii (the coordinate differences between the query
// point and the objects). A query binary-searches the candidate radii,
// testing each with a reporting query truncated at t results.
type LinfNN struct {
	ds     *dataset.Dataset
	base   rectQuerier
	sorted [][]float64
	dim, k int

	fam family
}

// BuildLinfNN constructs the index for k-keyword queries.
func BuildLinfNN(ds *dataset.Dataset, k int, options ...BuildOption) (*LinfNN, error) {
	opts := resolveOpts(options)
	if err := checkDataset(ds); err != nil {
		return nil, err
	}
	bt := obsBuildStart()
	var base rectQuerier
	var err error
	// The probe index is internal: built untagged so a search counts as one
	// linf_nn query, not O(log N) orpkw queries.
	if ds.Dim() <= 2 {
		base, err = buildORPKW(ds, k, opts.inner())
	} else {
		base, err = buildORPKWHigh(ds, k, opts.inner())
	}
	if err != nil {
		return nil, err
	}
	ix := &LinfNN{ds: ds, base: base, dim: ds.Dim(), k: k, fam: opts.famFor(famLinfNN)}
	ix.sorted = make([][]float64, ix.dim)
	for j := 0; j < ix.dim; j++ {
		c := make([]float64, ds.Len())
		for i := range c {
			c[i] = ds.Point(int32(i))[j]
		}
		sort.Float64s(c)
		ix.sorted[j] = c
	}
	obsBuildEnd(ix.fam, bt)
	return ix, nil
}

// linfBallInto fills dst with the L∞-ball B(q, r) as a d-rectangle; one
// search reuses a single rectangle across all of its probe queries.
func linfBallInto(dst *geom.Rect, q geom.Point, r float64) *geom.Rect {
	for i, c := range q {
		dst.Lo[i], dst.Hi[i] = c-r, c+r
	}
	return dst
}

// countCandidates returns the number of candidate radii <= r. A candidate
// is the floating-point value |q_j - x| exactly as computed, so the count
// binary-searches the candidate values themselves: on each side of q_j the
// computed difference is monotone in x, making the predicate
// "fl(|q_j - x|) <= r" searchable without reconstructing q_j ± r (whose own
// rounding would misclassify boundary candidates).
func (ix *LinfNN) countCandidates(q geom.Point, r float64) int64 {
	if r < 0 {
		return 0
	}
	var c int64
	for j := 0; j < ix.dim; j++ {
		s := ix.sorted[j]
		iq := sort.Search(len(s), func(i int) bool { return s[i] > q[j] })
		// Left region [0, iq): q_j - s[i] is non-increasing in i; the
		// qualifying suffix starts at the first i with q_j - s[i] <= r.
		firstLeft := sort.Search(iq, func(i int) bool { return q[j]-s[i] <= r })
		c += int64(iq - firstLeft)
		// Right region [iq, n): s[i] - q_j is non-decreasing in i; the
		// qualifying prefix ends before the first i with s[i] - q_j > r.
		endRight := iq + sort.Search(len(s)-iq, func(i int) bool { return s[iq+i]-q[j] > r })
		c += int64(endRight - iq)
	}
	return c
}

// nextCandidate returns the smallest candidate radius strictly greater than
// r, or +Inf if none exists, under the same float-exact candidate model as
// countCandidates. Negative r asks for the smallest candidate overall.
func (ix *LinfNN) nextCandidate(q geom.Point, r float64) float64 {
	best := math.Inf(1)
	for j := 0; j < ix.dim; j++ {
		s := ix.sorted[j]
		iq := sort.Search(len(s), func(i int) bool { return s[i] > q[j] })
		// Left region: candidates q_j - s[i], non-increasing in i. The
		// smallest one exceeding r sits just before the <= r suffix.
		firstLeft := sort.Search(iq, func(i int) bool { return q[j]-s[i] <= r })
		if firstLeft > 0 {
			if c := q[j] - s[firstLeft-1]; c > r && c < best {
				best = c
			}
		}
		// Right region: candidates s[i] - q_j, non-decreasing in i. The
		// smallest one exceeding r starts the > r suffix.
		offRight := sort.Search(len(s)-iq, func(i int) bool { return s[iq+i]-q[j] > r })
		if iq+offRight < len(s) {
			if c := s[iq+offRight] - q[j]; c > r && c < best {
				best = c
			}
		}
	}
	return best
}

// kthCandidate returns the i-th smallest candidate radius (1-based),
// accelerated by value bisection before walking to the exact candidate.
func (ix *LinfNN) kthCandidate(q geom.Point, i int64, maxR float64) float64 {
	lo, hi := -1.0, maxR
	for iter := 0; iter < 80 && hi-lo > 1e-12*(1+math.Abs(hi)); iter++ {
		mid := lo + (hi-lo)/2
		if ix.countCandidates(q, mid) >= i {
			hi = mid
		} else {
			lo = mid
		}
	}
	// Walk the few remaining distinct candidates in (lo, hi].
	for {
		c := ix.nextCandidate(q, lo)
		if math.IsInf(c, 1) {
			return hi
		}
		if ix.countCandidates(q, c) >= i {
			return c
		}
		lo = c
	}
}

// Query returns up to t objects of D(w1..wk) nearest to q under the L∞
// distance, sorted by distance (fewer when D(w1..wk) itself is smaller).
// opts applies to the whole search: the policy's deadline, node budget and
// cancellation channel are shared across every range probe, so a policy
// violation ends the search with a typed error and NNStats describing the
// work done so far; Limit additionally caps t.
func (ix *LinfNN) Query(q geom.Point, t int, ws []dataset.Keyword, opts QueryOpts) (res []NNResult, ns NNStats, err error) {
	qt := obsBegin(ix.fam)
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, newPanicError("LinfNN.Query", r, echoPoint(q, t, ws))
		}
		if obsEnd(ix.fam, qt, &ns.QueryStats, err) {
			obsSpan(ix.fam, "Query", echoPoint(q, t, ws), ix.k, qt, &ns.QueryStats, err)
		}
	}()
	if err := validatePoint(q, ix.dim); err != nil {
		return nil, NNStats{}, err
	}
	if t < 1 {
		return nil, NNStats{}, fmt.Errorf("%w: t must be >= 1, got %d", ErrInvalidQuery, t)
	}
	if err := dataset.ValidateKeywords(ws); err != nil {
		return nil, NNStats{}, fmt.Errorf("%w: %v", ErrInvalidQuery, err)
	}
	if opts.Limit > 0 && opts.Limit < t {
		t = opts.Limit
	}
	ball := &geom.Rect{Lo: make([]float64, ix.dim), Hi: make([]float64, ix.dim)}
	atLeastT := func(r float64) (bool, error) {
		failpoint(FPNNProbe)
		ns.Probes++
		st, err := ix.base.Query(linfBallInto(ball, q, r), ws,
			QueryOpts{Limit: t, Policy: opts.Policy.shrunk(ns.Ops)}, func(int32) {})
		ns.QueryStats.add(st)
		return st.Reported >= t, err
	}
	// Maximum candidate radius: the farthest coordinate difference.
	maxR := 0.0
	for j := 0; j < ix.dim; j++ {
		s := ix.sorted[j]
		if c := math.Abs(q[j] - s[0]); c > maxR {
			maxR = c
		}
		if c := math.Abs(s[len(s)-1] - q[j]); c > maxR {
			maxR = c
		}
	}
	full, err := atLeastT(maxR)
	if err != nil {
		return nil, ns, err
	}
	rStar := maxR
	if full {
		// Binary search the candidate index space for the smallest radius
		// at which t objects fall inside the ball.
		m := ix.countCandidates(q, maxR)
		lo, hi := int64(1), m // hi's radius satisfies the predicate
		for lo < hi {
			mid := (lo + hi) / 2
			r := ix.kthCandidate(q, mid, maxR)
			ok, err := atLeastT(r)
			if err != nil {
				return nil, ns, err
			}
			if ok {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		rStar = ix.kthCandidate(q, lo, maxR)
	}
	// Final reporting pass at r*; ties at distance exactly r* are broken
	// arbitrarily, as the problem statement allows.
	ns.Probes++
	st, err := ix.base.Query(linfBallInto(ball, q, rStar), ws,
		QueryOpts{Policy: opts.Policy.shrunk(ns.Ops)}, func(id int32) {
			res = append(res, NNResult{ID: id, Dist: q.LInf(ix.ds.Point(id))})
		})
	ns.QueryStats.add(st)
	if err != nil {
		return res, ns, err
	}
	sort.Slice(res, func(a, b int) bool {
		if res[a].Dist != res[b].Dist {
			return res[a].Dist < res[b].Dist
		}
		return res[a].ID < res[b].ID
	})
	if len(res) > t {
		res = res[:t]
	}
	return res, ns, nil
}

// L2NN is the L2-nearest-neighbor-with-keywords index of Corollary 7 for
// integer coordinates: the lifted SRP-KW index plus binary search over the
// O(N^{O(1)}) candidate squared radii — integers, so O(log N) probes with
// truncated reporting queries locate the smallest enclosing sphere exactly.
type L2NN struct {
	ds         *dataset.Dataset
	srp        *SRPKW
	dim, k     int
	bbLo, bbHi []float64

	fam family
}

// BuildL2NN constructs the index; every coordinate must be integral (the
// problem fixes D in N^d, the O(log N)-bit integers).
func BuildL2NN(ds *dataset.Dataset, k int, options ...BuildOption) (*L2NN, error) {
	opts := resolveOpts(options)
	if err := checkDataset(ds); err != nil {
		return nil, err
	}
	bt := obsBuildStart()
	for i := 0; i < ds.Len(); i++ {
		for j, c := range ds.Point(int32(i)) {
			if c != math.Trunc(c) {
				return nil, fmt.Errorf("core: L2NN-KW requires integer coordinates; object %d dimension %d has %v", i, j, c)
			}
		}
	}
	srp, err := buildSRPKW(ds, k, opts.inner())
	if err != nil {
		return nil, err
	}
	ix := &L2NN{ds: ds, srp: srp, dim: ds.Dim(), k: k, fam: opts.famFor(famL2NN)}
	ix.bbLo = make([]float64, ix.dim)
	ix.bbHi = make([]float64, ix.dim)
	copy(ix.bbLo, ds.Point(0))
	copy(ix.bbHi, ds.Point(0))
	for i := 1; i < ds.Len(); i++ {
		p := ds.Point(int32(i))
		for j := 0; j < ix.dim; j++ {
			if p[j] < ix.bbLo[j] {
				ix.bbLo[j] = p[j]
			}
			if p[j] > ix.bbHi[j] {
				ix.bbHi[j] = p[j]
			}
		}
	}
	obsBuildEnd(ix.fam, bt)
	return ix, nil
}

// Query returns up to t objects of D(w1..wk) nearest to q under L2 distance,
// sorted by distance. q must have integer coordinates. opts applies to the
// whole search (see LinfNN.Query).
func (ix *L2NN) Query(q geom.Point, t int, ws []dataset.Keyword, opts QueryOpts) (res []NNResult, ns NNStats, err error) {
	qt := obsBegin(ix.fam)
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, newPanicError("L2NN.Query", r, echoPoint(q, t, ws))
		}
		if obsEnd(ix.fam, qt, &ns.QueryStats, err) {
			obsSpan(ix.fam, "Query", echoPoint(q, t, ws), ix.k, qt, &ns.QueryStats, err)
		}
	}()
	if err := validatePoint(q, ix.dim); err != nil {
		return nil, NNStats{}, err
	}
	if t < 1 {
		return nil, NNStats{}, fmt.Errorf("%w: t must be >= 1, got %d", ErrInvalidQuery, t)
	}
	if err := dataset.ValidateKeywords(ws); err != nil {
		return nil, NNStats{}, fmt.Errorf("%w: %v", ErrInvalidQuery, err)
	}
	if opts.Limit > 0 && opts.Limit < t {
		t = opts.Limit
	}
	atLeastT := func(r2 int64) (bool, error) {
		failpoint(FPNNProbe)
		ns.Probes++
		st, err := ix.srp.QuerySq(q, float64(r2), ws,
			QueryOpts{Limit: t, Policy: opts.Policy.shrunk(ns.Ops)}, func(int32) {})
		ns.QueryStats.add(st)
		return st.Reported >= t, err
	}
	var maxR2 int64
	for j := 0; j < ix.dim; j++ {
		d := math.Max(math.Abs(q[j]-ix.bbLo[j]), math.Abs(ix.bbHi[j]-q[j]))
		maxR2 += int64(d) * int64(d)
	}
	full, err := atLeastT(maxR2)
	if err != nil {
		return nil, ns, err
	}
	r2Star := maxR2
	if full {
		lo, hi := int64(0), maxR2
		for lo < hi {
			mid := lo + (hi-lo)/2
			ok, err := atLeastT(mid)
			if err != nil {
				return nil, ns, err
			}
			if ok {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		r2Star = lo
	}
	ns.Probes++
	st, err := ix.srp.QuerySq(q, float64(r2Star), ws,
		QueryOpts{Policy: opts.Policy.shrunk(ns.Ops)}, func(id int32) {
			res = append(res, NNResult{ID: id, Dist: q.L2(ix.ds.Point(id))})
		})
	ns.QueryStats.add(st)
	if err != nil {
		return res, ns, err
	}
	sort.Slice(res, func(a, b int) bool {
		if res[a].Dist != res[b].Dist {
			return res[a].Dist < res[b].Dist
		}
		return res[a].ID < res[b].ID
	})
	if len(res) > t {
		res = res[:t]
	}
	return res, ns, nil
}

// Space returns the analytic space audit of the underlying SRP-KW index.
func (ix *L2NN) Space() SpaceBreakdown { return ix.srp.Space() }
