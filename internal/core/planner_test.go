package core

import (
	"math/rand"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/workload"
)

// TestPlannerAllRoutesAgree holds the route the planner picks, and each of
// its three routes run directly, to the brute-force filter — at d = 2, where
// the framework route is Theorem 1's index, and at d = 3.
func TestPlannerAllRoutesAgree(t *testing.T) {
	for _, dim := range []int{2, 3} {
		ds := workload.Gen(workload.Config{Seed: int64(dim - 1), Objects: 800, Dim: dim, Vocab: 30, DocLen: 4})
		p, err := BuildPlanner(ds, 2)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(10))
		routesSeen := map[Route]bool{}
		for trial := 0; trial < 60; trial++ {
			q := workload.RandRect(rng, dim, []float64{0.02, 0.9, 0.3}[trial%3]) // tiny, huge, middling
			ws := workload.RandKeywords(rng, 30, 2)
			want := ds.Filter(q, ws)
			got, plan, err := p.Collect(q, ws)
			if err != nil {
				t.Fatal(err)
			}
			routesSeen[plan.Route] = true
			equalIDs(t, got, want, "planner-"+string(plan.Route))

			equalIDs(t, p.inv.KeywordsOnly(q, ws), want, string(RouteKeywordsOnly))
			so, _, _ := p.so.Query(q, ws)
			equalIDs(t, so, want, string(RouteStructuredOnly))
			fw, _, err := p.orp.Collect(q, ws, QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			equalIDs(t, fw, want, string(RouteFramework))
		}
		if len(routesSeen) < 2 {
			t.Fatalf("d=%d: planner never diversified: %v", dim, routesSeen)
		}
	}
}

func TestPlannerPicksKeywordsOnlyForRareTerm(t *testing.T) {
	// One keyword appears exactly once: the posting scan is unbeatable.
	rng := rand.New(rand.NewSource(2))
	objs := make([]dataset.Object, 2000)
	for i := range objs {
		objs[i] = dataset.Object{
			Point: geom.Point{rng.Float64(), rng.Float64()},
			Doc:   []dataset.Keyword{1, dataset.Keyword(2 + rng.Intn(20))},
		}
	}
	objs[500].Doc = []dataset.Keyword{0, 1} // the single rare occurrence
	ds := dataset.MustNew(objs)
	p, err := BuildPlanner(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan := p.Explain(geom.UniverseRect(2), []dataset.Keyword{0, 1})
	if plan.Route != RouteKeywordsOnly {
		t.Fatalf("rare keyword should route to posting scan, got %s (%v)", plan.Route, plan.Estimates)
	}
}

func TestPlannerPicksStructuredOnlyForTinyRegion(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 3, Objects: 5000, Dim: 2, Vocab: 6, DocLen: 4, ZipfS: 1.01})
	p, err := BuildPlanner(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Frequent keywords + microscopic region.
	q := geom.NewRect([]float64{0.5, 0.5}, []float64{0.5001, 0.5001})
	plan := p.Explain(q, []dataset.Keyword{0, 1})
	if plan.Route != RouteStructuredOnly {
		t.Fatalf("tiny region should route to geometric filter, got %s (%v)", plan.Route, plan.Estimates)
	}
}

func TestPlannerPicksFrameworkForBalancedQuery(t *testing.T) {
	// Large postings, large region, but (by the planted construction) the
	// intersection is controlled: the framework's sublinear bound wins.
	ds, kws, _ := workload.GenAdversarial(workload.Adversarial{Seed: 4, Objects: 20000, Dim: 2, K: 2})
	p, err := BuildPlanner(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan := p.Explain(geom.UniverseRect(2), kws)
	// min posting ~ 0.9*sqrt(N); framework estimate ~ sqrt(N)*(1+N^{1/4}*..)
	// vs keywords-only 2*0.9*sqrt(N): close — accept either sublinear route,
	// but never the full structured scan.
	if plan.Route == RouteStructuredOnly {
		t.Fatalf("universe region must not route to the structured scan (%v)", plan.Estimates)
	}
}

func TestPlannerValidation(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 5, Objects: 100, Dim: 2, Vocab: 10, DocLen: 3})
	p, err := BuildPlanner(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Collect(geom.UniverseRect(2), []dataset.Keyword{1}); err == nil {
		t.Fatal("wrong arity must error")
	}
	if _, _, err := p.Collect(geom.UniverseRect(2), []dataset.Keyword{1, 1}); err == nil {
		t.Fatal("duplicates must error")
	}
}

func TestPlannerSelectivityClamps(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 6, Objects: 100, Dim: 2, Vocab: 10, DocLen: 3})
	p, err := BuildPlanner(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Region outside the data bounding box.
	if s := p.selectivity(geom.NewRect([]float64{5, 5}, []float64{6, 6})); s != 0 {
		t.Fatalf("external region selectivity = %v, want 0", s)
	}
	// Region covering everything.
	if s := p.selectivity(geom.UniverseRect(2)); s != 1 {
		t.Fatalf("universe selectivity = %v, want 1", s)
	}
}
