package main

import (
	"fmt"
	"math"

	"kwsc/internal/core"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/invidx"
)

// planner is a cost-based router over the three ways to answer a
// rectangle+keywords query — the paper's index and the two naive baselines
// it generalizes. The paper's point is asymptotic domination, but at finite
// N each strategy has a regime: a very rare keyword makes the posting scan
// unbeatable, a tiny region makes the geometric filter cheap, and everything
// else belongs to the framework. The planner applies the paper's own cost
// formulas as estimates, with the classic independence assumption supplying
// the output-cardinality estimate (core.OutEstimate):
//
//	estOUT          = min(min_w |S_w|, |D| * prod_w (|S_w|/|D|) * sel(q))
//	keywords-only:   k * min_w |S_w|            (galloping intersection)
//	structured-only: sel(q) * |D|               (uniformity assumption)
//	framework:       N^{1-1/k} * (1 + estOUT^{1/k})
//
// All three routes return identical results; only cost differs.
type planner struct {
	ds   *dataset.Dataset
	k    int
	orp  *core.ORPKW
	inv  *invidx.Index
	so   *core.StructuredOnly
	bbox *geom.Rect
}

// route identifies the strategy a plan selected.
type route string

// The planner's strategies.
const (
	routeFramework      route = "framework"       // the paper's index (Theorem 1)
	routeKeywordsOnly   route = "keywords-only"   // posting intersection + filter
	routeStructuredOnly route = "structured-only" // geometric filter + keyword check
)

// plan records a routing decision.
type plan struct {
	route     route
	estimates map[route]float64 // estimated work units per strategy
}

// buildPlanner constructs all three strategies for k-keyword queries.
func buildPlanner(ds *dataset.Dataset, k int) (*planner, error) {
	orp, err := core.BuildORPKW(ds, k, core.WithoutObs())
	if err != nil {
		return nil, err
	}
	pts := make([]geom.Point, ds.Len())
	for i := range pts {
		pts[i] = ds.Point(int32(i))
	}
	return &planner{
		ds:   ds,
		k:    k,
		orp:  orp,
		inv:  invidx.Build(ds),
		so:   core.BuildStructuredOnly(ds, nil),
		bbox: geom.BoundingRect(pts),
	}, nil
}

// explain estimates each strategy without running anything.
func (p *planner) explain(q *geom.Rect, ws []dataset.Keyword) plan {
	out := core.NewOutEstimate(p.ds.Len())
	for _, w := range ws {
		out.Add(float64(p.inv.DocFrequency(w)))
	}
	sel := p.selectivity(q)
	est := map[route]float64{
		routeKeywordsOnly:   float64(p.k) * out.MinDF(),
		routeStructuredOnly: sel * float64(p.ds.Len()),
		routeFramework:      core.Theorem1Cost(float64(p.ds.N()), p.k, out.Out(sel)),
	}
	best := routeFramework
	for r, c := range est {
		if c < est[best] || (c == est[best] && r == routeKeywordsOnly) {
			best = r
		}
	}
	return plan{route: best, estimates: est}
}

// selectivity estimates the fraction of objects inside q under a uniformity
// assumption over the data bounding box.
func (p *planner) selectivity(q *geom.Rect) float64 {
	frac := 1.0
	for j := 0; j < p.ds.Dim(); j++ {
		span := p.bbox.Hi[j] - p.bbox.Lo[j]
		if span <= 0 {
			continue
		}
		lo := math.Max(q.Lo[j], p.bbox.Lo[j])
		hi := math.Min(q.Hi[j], p.bbox.Hi[j])
		if hi <= lo {
			return 0
		}
		frac *= (hi - lo) / span
	}
	return frac
}

// collect routes the query and returns its ids with the plan that chose the
// route.
func (p *planner) collect(q *geom.Rect, ws []dataset.Keyword) ([]int32, plan, error) {
	if len(ws) != p.k {
		return nil, plan{}, fmt.Errorf("planner built for k=%d, query has %d keywords", p.k, len(ws))
	}
	if err := dataset.ValidateKeywords(ws); err != nil {
		return nil, plan{}, err
	}
	pl := p.explain(q, ws)
	switch pl.route {
	case routeKeywordsOnly:
		return p.inv.KeywordsOnly(q, ws), pl, nil
	case routeStructuredOnly:
		ids, _, _ := p.so.Query(q, ws)
		return ids, pl, nil
	default:
		ids, _, err := p.orp.CollectInto(q, ws, core.QueryOpts{}, nil)
		return ids, pl, err
	}
}
