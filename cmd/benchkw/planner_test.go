package main

import (
	"math/rand"
	"slices"
	"testing"

	"kwsc/internal/core"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/workload"
)

// equalIDs fails unless got and want hold the same ids in any order.
func equalIDs(t *testing.T, got, want []int32, label string) {
	t.Helper()
	g, w := slices.Clone(got), slices.Clone(want)
	slices.Sort(g)
	slices.Sort(w)
	if !slices.Equal(g, w) {
		t.Fatalf("%s: got %d ids %v, want %d ids %v", label, len(g), g, len(w), w)
	}
}

// TestPlannerAllRoutesAgree holds the route the planner picks, and each of
// its three routes run directly, to the brute-force filter — at d = 2, where
// the framework route is Theorem 1's index, and at d = 3.
func TestPlannerAllRoutesAgree(t *testing.T) {
	for _, dim := range []int{2, 3} {
		ds := workload.Gen(workload.Config{Seed: int64(dim - 1), Objects: 800, Dim: dim, Vocab: 30, DocLen: 4})
		p, err := buildPlanner(ds, 2)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(10))
		routesSeen := map[route]bool{}
		for trial := 0; trial < 60; trial++ {
			q := workload.RandRect(rng, dim, []float64{0.02, 0.9, 0.3}[trial%3]) // tiny, huge, middling
			ws := workload.RandKeywords(rng, 30, 2)
			want := ds.Filter(q, ws)
			got, pl, err := p.collect(q, ws)
			if err != nil {
				t.Fatal(err)
			}
			routesSeen[pl.route] = true
			equalIDs(t, got, want, "planner-"+string(pl.route))

			equalIDs(t, p.inv.KeywordsOnly(q, ws), want, string(routeKeywordsOnly))
			so, _, _ := p.so.Query(q, ws)
			equalIDs(t, so, want, string(routeStructuredOnly))
			fw, _, err := p.orp.CollectInto(q, ws, core.QueryOpts{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			equalIDs(t, fw, want, string(routeFramework))
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
	p, err := buildPlanner(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl := p.explain(geom.UniverseRect(2), []dataset.Keyword{0, 1})
	if pl.route != routeKeywordsOnly {
		t.Fatalf("rare keyword should route to posting scan, got %s (%v)", pl.route, pl.estimates)
	}
}

func TestPlannerPicksStructuredOnlyForTinyRegion(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 3, Objects: 5000, Dim: 2, Vocab: 6, DocLen: 4, ZipfS: 1.01})
	p, err := buildPlanner(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Frequent keywords + microscopic region.
	q := geom.NewRect([]float64{0.5, 0.5}, []float64{0.5001, 0.5001})
	pl := p.explain(q, []dataset.Keyword{0, 1})
	if pl.route != routeStructuredOnly {
		t.Fatalf("tiny region should route to geometric filter, got %s (%v)", pl.route, pl.estimates)
	}
}

func TestPlannerPicksFrameworkForBalancedQuery(t *testing.T) {
	// Large postings, large region, but (by the planted construction) the
	// intersection is controlled: the framework's sublinear bound wins.
	ds, kws, _ := workload.GenAdversarial(workload.Adversarial{Seed: 4, Objects: 20000, Dim: 2, K: 2})
	p, err := buildPlanner(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl := p.explain(geom.UniverseRect(2), kws)
	// min posting ~ 0.9*sqrt(N); framework estimate ~ sqrt(N)*(1+N^{1/4}*..)
	// vs keywords-only 2*0.9*sqrt(N): close — accept either sublinear route,
	// but never the full structured scan.
	if pl.route == routeStructuredOnly {
		t.Fatalf("universe region must not route to the structured scan (%v)", pl.estimates)
	}
}

func TestPlannerValidation(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 5, Objects: 100, Dim: 2, Vocab: 10, DocLen: 3})
	p, err := buildPlanner(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.collect(geom.UniverseRect(2), []dataset.Keyword{1}); err == nil {
		t.Fatal("wrong arity must error")
	}
	if _, _, err := p.collect(geom.UniverseRect(2), []dataset.Keyword{1, 1}); err == nil {
		t.Fatal("duplicates must error")
	}
}

func TestPlannerSelectivityClamps(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 6, Objects: 100, Dim: 2, Vocab: 10, DocLen: 3})
	p, err := buildPlanner(ds, 2)
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
