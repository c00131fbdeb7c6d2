package core

import (
	"fmt"
	"math"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

// RRKW is the rectangle-reporting-with-keywords index of Corollary 3. Data
// rectangles [a1,b1] x ... x [ad,bd] are mapped to the 2d-dimensional corner
// points (a1, b1, ..., ad, bd); a query rectangle [x1,y1] x ... x [xd,yd]
// intersects a data rectangle iff the corner point falls in
// (-inf, y1] x [x1, +inf) x ... (Appendix F), so an RR-KW query becomes a
// 2d-dimensional ORP-KW query. For d = 1 — the temporal-document setting of
// [7] — the corner space is 2-dimensional and Theorem 1 applies directly;
// for d >= 2 the index routes through the dimension-reduction structure of
// Theorem 2.
type RRKW struct {
	d     int
	k     int
	rects []*geom.Rect
	low   *ORPKW     // corner dimension 2 (d = 1)
	high  *ORPKWHigh // corner dimension >= 4 (d >= 2)
	ds    *dataset.Dataset

	fam family
}

// RectObject is one input element of RR-KW: a d-rectangle plus a document.
type RectObject struct {
	Rect *geom.Rect
	Doc  []dataset.Keyword
}

// BuildRRKW constructs the index for k-keyword queries.
func BuildRRKW(rects []RectObject, k int, options ...BuildOption) (*RRKW, error) {
	opts := resolveOpts(options)
	if len(rects) == 0 {
		return nil, fmt.Errorf("%w: RR-KW needs at least one rectangle", ErrInvalidDataset)
	}
	bt := obsBuildStart()
	d := rects[0].Rect.Dim()
	objs := make([]dataset.Object, len(rects))
	geomRects := make([]*geom.Rect, len(rects))
	for i, r := range rects {
		if r.Rect.Dim() != d {
			return nil, fmt.Errorf("core: rectangle %d has dimension %d, want %d", i, r.Rect.Dim(), d)
		}
		corner := make(geom.Point, 2*d)
		for j := 0; j < d; j++ {
			corner[2*j] = r.Rect.Lo[j]
			corner[2*j+1] = r.Rect.Hi[j]
		}
		objs[i] = dataset.Object{Point: corner, Doc: r.Doc}
		geomRects[i] = r.Rect
	}
	ds, err := dataset.New(objs)
	if err != nil {
		return nil, err
	}
	ix := &RRKW{d: d, k: k, rects: geomRects, ds: ds, fam: opts.famFor(famRRKW)}
	// The corner-space index is an implementation detail: build it untagged
	// so each RR-KW query is counted once, at this entry point.
	if 2*d <= 2 {
		ix.low, err = buildORPKW(ds, k, opts.inner())
	} else {
		ix.high, err = buildORPKWHigh(ds, k, opts.inner())
	}
	if err != nil {
		return nil, err
	}
	obsBuildEnd(ix.fam, bt)
	return ix, nil
}

// cornerQuery maps a d-dimensional query rectangle to the 2d-dimensional
// corner-space rectangle of Appendix F.
func (ix *RRKW) cornerQuery(q *geom.Rect) *geom.Rect {
	lo := make([]float64, 2*ix.d)
	hi := make([]float64, 2*ix.d)
	for j := 0; j < ix.d; j++ {
		lo[2*j], hi[2*j] = math.Inf(-1), q.Hi[j]    // a_j <= y_j
		lo[2*j+1], hi[2*j+1] = q.Lo[j], math.Inf(1) // b_j >= x_j
	}
	return &geom.Rect{Lo: lo, Hi: hi}
}

// Query reports every data rectangle intersecting q whose document contains
// all keywords.
func (ix *RRKW) Query(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts, report func(int32)) (st QueryStats, err error) {
	qt := obsBegin(ix.fam)
	defer func() {
		if obsEnd(ix.fam, qt, &st, err) {
			obsSpan(ix.fam, "Query", echoRegion(q, ws), ix.k, qt, &st, err)
		}
	}()
	if err := validateRect(q, ix.d); err != nil {
		return QueryStats{}, err
	}
	cq := ix.cornerQuery(q)
	if ix.low != nil {
		return ix.low.Query(cq, ws, opts, report)
	}
	return ix.high.Query(cq, ws, opts, report)
}

// CollectInto is Query returning the ids, with Framework.CollectInto's
// buffer contract.
func (ix *RRKW) CollectInto(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts, buf []int32) (out []int32, st QueryStats, err error) {
	qt := obsBegin(ix.fam)
	defer func() {
		if obsEnd(ix.fam, qt, &st, err) {
			obsSpan(ix.fam, "CollectInto", echoRegion(q, ws), ix.k, qt, &st, err)
		}
	}()
	if err := validateRect(q, ix.d); err != nil {
		return nil, QueryStats{}, err
	}
	cq := ix.cornerQuery(q)
	if ix.low != nil {
		return ix.low.CollectInto(cq, ws, opts, buf)
	}
	return ix.high.CollectInto(cq, ws, opts, buf)
}

// Rect returns data rectangle i.
func (ix *RRKW) Rect(i int32) *geom.Rect { return ix.rects[i] }

// K returns the keyword arity queries must carry.
func (ix *RRKW) K() int { return ix.k }

// Dataset returns the corner-point dataset of the reduction.
func (ix *RRKW) Dataset() *dataset.Dataset { return ix.ds }

// Space returns the analytic space audit.
func (ix *RRKW) Space() SpaceBreakdown {
	if ix.low != nil {
		return ix.low.Space()
	}
	return ix.high.Space()
}
