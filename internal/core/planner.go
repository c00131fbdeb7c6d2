package core

import (
	"fmt"
	"math"
	"time"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/invidx"
	"kwsc/internal/obs"
)

// Planner is a cost-based router over the three ways to answer a
// rectangle+keywords query — the paper's index and the two naive baselines
// it generalizes. The paper's point is asymptotic domination, but at finite
// N each strategy has a regime: a very rare keyword makes the posting scan
// unbeatable, a tiny region makes the geometric filter cheap, and everything
// else belongs to the framework. The planner applies the paper's own cost
// formulas (estimate.go) as estimates, with the classic independence
// assumption supplying the output-cardinality estimate:
//
//	estOUT          = min(min_w |S_w|, |D| * prod_w (|S_w|/|D|) * sel(q))
//	keywords-only:   k * min_w |S_w|            (galloping intersection)
//	structured-only: sel(q) * |D|               (uniformity assumption)
//	framework:       N^{1-1/k} * (1 + estOUT^{1/k})
//
// All three routes return identical results; only cost differs.
type Planner struct {
	ds   *dataset.Dataset
	k    int
	orp  *ORPKW
	inv  *invidx.Index
	so   *StructuredOnly
	bbox *geom.Rect
	nPow float64 // N^{1-1/k}

	fam    family
	tracer obs.Tracer
}

// Route identifies the strategy a plan selected.
type Route string

// The planner's strategies.
const (
	RouteFramework      Route = "framework"       // the paper's index (Theorem 1/2)
	RouteKeywordsOnly   Route = "keywords-only"   // posting intersection + filter
	RouteStructuredOnly Route = "structured-only" // geometric filter + keyword check
)

// Plan records a routing decision.
type Plan struct {
	Route     Route
	Estimates map[Route]float64 // estimated work units per strategy
}

// BuildPlanner constructs all three strategies for k-keyword queries.
func BuildPlanner(ds *dataset.Dataset, k int, opts ...BuildOption) (*Planner, error) {
	if err := checkDataset(ds); err != nil {
		return nil, err
	}
	o := resolveOpts(opts)
	bt := obsBuildStart()
	// The framework route is one of the planner's internal strategies:
	// untagged, so each routed query is counted once under planner.
	orp, err := BuildORPKWWith(ds, k, o.inner())
	if err != nil {
		return nil, err
	}
	pts := make([]geom.Point, ds.Len())
	for i := range pts {
		pts[i] = ds.Point(int32(i))
	}
	p := &Planner{
		ds:     ds,
		k:      k,
		orp:    orp,
		inv:    invidx.Build(ds),
		so:     BuildStructuredOnly(ds, nil),
		bbox:   geom.BoundingRect(pts),
		nPow:   math.Pow(float64(ds.N()), 1-1/float64(k)),
		fam:    o.famFor(famPlanner),
		tracer: o.Tracer,
	}
	obsBuildEnd(p.fam, bt)
	return p, nil
}

// Explain estimates each strategy without running anything.
func (p *Planner) Explain(q *geom.Rect, ws []dataset.Keyword) Plan {
	out := newOutEstimate(p.ds.Len())
	for _, w := range ws {
		out.add(float64(p.inv.DocFrequency(w)))
	}
	sel := p.selectivity(q)
	est := map[Route]float64{
		RouteKeywordsOnly:   keywordsOnlyCost(p.k, out.minDF),
		RouteStructuredOnly: structuredOnlyCost(sel, p.ds.Len()),
		RouteFramework:      frameworkCost(p.nPow, p.k, out.out(sel)),
	}
	best := RouteFramework
	for r, c := range est {
		if c < est[best] || (c == est[best] && r == RouteKeywordsOnly) {
			best = r
		}
	}
	return Plan{Route: best, Estimates: est}
}

// selectivity estimates the fraction of objects inside q under a uniformity
// assumption over the data bounding box.
func (p *Planner) selectivity(q *geom.Rect) float64 {
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

// Query routes and executes. The returned plan reports the decision; stats
// are filled for the framework route (the baselines report only result
// counts through the plan estimates).
func (p *Planner) Query(q *geom.Rect, ws []dataset.Keyword, report func(int32)) (plan Plan, st QueryStats, err error) {
	qt := obsBegin(p.fam, "Query", p.tracer)
	defer func() {
		if obsEnd(p.fam, qt, &st, err, p.tracer) {
			p.emitPlanSpan(plan, q, ws, qt, &st, err)
		}
	}()
	if len(ws) != p.k {
		return Plan{}, QueryStats{}, fmt.Errorf("core: planner built for k=%d, query has %d keywords", p.k, len(ws))
	}
	if err := dataset.ValidateKeywords(ws); err != nil {
		return Plan{}, QueryStats{}, err
	}
	plan = p.Explain(q, ws)
	p.countRoute(plan.Route)
	switch plan.Route {
	case RouteKeywordsOnly:
		for _, id := range p.inv.KeywordsOnly(q, ws) {
			report(id)
			st.Reported++
		}
		return plan, st, nil
	case RouteStructuredOnly:
		ids, _, _ := p.so.Query(q, ws)
		for _, id := range ids {
			report(id)
			st.Reported++
		}
		return plan, st, nil
	default:
		st, err = p.orp.Query(q, ws, QueryOpts{}, report)
		return plan, st, err
	}
}

// countRoute records the routing decision in the shared route counters.
func (p *Planner) countRoute(r Route) {
	if p.fam == famNone || !obs.MetricsEnabled() {
		return
	}
	switch r {
	case RouteKeywordsOnly:
		routeKeywordsHits.Inc()
	case RouteStructuredOnly:
		routeStructuredHits.Inc()
	default:
		routeFrameworkHits.Inc()
	}
}

// emitPlanSpan is the planner's decision trace: the usual query span plus the
// chosen route and the per-strategy cost estimates that drove the decision.
func (p *Planner) emitPlanSpan(plan Plan, q *geom.Rect, ws []dataset.Keyword, start time.Time, st *QueryStats, err error) {
	sp := obs.Span{
		Family:  famNames[p.fam],
		Op:      "Query",
		Query:   echoRegion(q, ws),
		K:       p.k,
		Out:     st.Reported,
		Ops:     st.Ops,
		Nodes:   st.NodesVisited,
		Elapsed: time.Since(start),
		Outcome: outcomeOf(err),
		Err:     err,
		Route:   string(plan.Route),
	}
	if len(plan.Estimates) > 0 {
		sp.Estimates = make(map[string]float64, len(plan.Estimates))
		for r, c := range plan.Estimates {
			sp.Estimates[string(r)] = c
		}
	}
	emitSpan(sp, p.tracer)
}

// Collect is Query returning a slice.
func (p *Planner) Collect(q *geom.Rect, ws []dataset.Keyword) ([]int32, Plan, error) {
	var out []int32
	plan, _, err := p.Query(q, ws, func(id int32) { out = append(out, id) })
	return out, plan, err
}
