package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/spart"
	"kwsc/internal/workload"
)

// randDataset builds a small random dataset with heavy keyword reuse so
// intersections are non-trivial.
func randDataset(rng *rand.Rand, maxN, dim int) *dataset.Dataset {
	n := 2 + rng.Intn(maxN)
	vocab := 4 + rng.Intn(12)
	objs := make([]dataset.Object, n)
	for i := range objs {
		p := make(geom.Point, dim)
		for j := range p {
			// Coarse grid: plenty of coordinate ties.
			p[j] = float64(rng.Intn(16))
		}
		l := 1 + rng.Intn(5)
		doc := make([]dataset.Keyword, l)
		for j := range doc {
			doc[j] = dataset.Keyword(rng.Intn(vocab))
		}
		objs[i] = dataset.Object{Point: p, Doc: doc}
	}
	return dataset.MustNew(objs)
}

func randKws(rng *rand.Rand, ds *dataset.Dataset, k int) []dataset.Keyword {
	ws := make([]dataset.Keyword, 0, k)
	seen := map[dataset.Keyword]bool{}
	for len(ws) < k {
		w := dataset.Keyword(rng.Intn(ds.W() + 1))
		if !seen[w] {
			seen[w] = true
			ws = append(ws, w)
		}
	}
	return ws
}

// Property: ORP-KW equals the brute-force oracle on arbitrary random
// datasets (including heavy ties) and arbitrary rectangles, for k = 2 and 3.
func TestPropertyORPKWEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	check := func() bool {
		k := 2 + rng.Intn(2)
		ds := randDataset(rng, 120, 2)
		ix, err := BuildORPKW(ds, k)
		if err != nil {
			return false
		}
		for q := 0; q < 8; q++ {
			lo := []float64{float64(rng.Intn(16)) - 0.5, float64(rng.Intn(16)) - 0.5}
			hi := []float64{lo[0] + float64(rng.Intn(10)), lo[1] + float64(rng.Intn(10))}
			rect := &geom.Rect{Lo: lo, Hi: hi}
			ws := randKws(rng, ds, k)
			got, _, err := ix.CollectInto(rect, ws, QueryOpts{}, nil)
			if err != nil {
				return false
			}
			if !sameIDSet(got, ds.Filter(rect, ws)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return check() }, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Willard-substrate SP-KW index equals the oracle on random
// halfplane conjunctions.
func TestPropertySPKWEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	check := func() bool {
		k := 2 + rng.Intn(2)
		ds := randDataset(rng, 100, 2)
		ix, err := BuildSPKW(ds, SPKWConfig{K: k})
		if err != nil {
			return false
		}
		for q := 0; q < 6; q++ {
			s := 1 + rng.Intn(3)
			hs := make([]geom.Halfspace, s)
			for i := range hs {
				hs[i] = geom.Halfspace{
					Coef:  []float64{rng.NormFloat64(), rng.NormFloat64()},
					Bound: rng.NormFloat64() * 10,
				}
			}
			ws := randKws(rng, ds, k)
			got, _, err := ix.CollectInto(hs, ws, QueryOpts{}, nil)
			if err != nil {
				return false
			}
			if !sameIDSet(got, ds.Filter(geom.NewPolyhedron(hs...), ws)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return check() }, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the dimension-reduction index agrees with the oracle in 3 and 4
// dimensions.
func TestPropertyORPKWHighEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	check := func() bool {
		dim := 3 + rng.Intn(2)
		ds := randDataset(rng, 100, dim)
		ix, err := BuildORPKWHigh(ds, 2)
		if err != nil {
			return false
		}
		for q := 0; q < 6; q++ {
			lo := make([]float64, dim)
			hi := make([]float64, dim)
			for j := 0; j < dim; j++ {
				lo[j] = float64(rng.Intn(16)) - 0.5
				hi[j] = lo[j] + float64(rng.Intn(12))
			}
			rect := &geom.Rect{Lo: lo, Hi: hi}
			ws := randKws(rng, ds, 2)
			got, _, err := ix.CollectInto(rect, ws, QueryOpts{}, nil)
			if err != nil {
				return false
			}
			if !sameIDSet(got, ds.Filter(rect, ws)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return check() }, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the grid-splitter ablation substrate answers identically to the
// Willard substrate (same problem, different Step-1 index).
func TestPropertySplitterAgnostic(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 60; trial++ {
		ds := randDataset(rng, 100, 2)
		a, err := BuildSPKW(ds, SPKWConfig{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		b, err := BuildSPKW(ds, SPKWConfig{K: 2, Splitter: &spart.Grid2D{G: 3}})
		if err != nil {
			t.Fatal(err)
		}
		hs := []geom.Halfspace{{
			Coef:  []float64{rng.NormFloat64(), rng.NormFloat64()},
			Bound: rng.NormFloat64() * 8,
		}}
		ws := randKws(rng, ds, 2)
		ra, _, err := a.CollectInto(hs, ws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rb, _, err := b.CollectInto(hs, ws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDSet(ra, rb) {
			t.Fatalf("trial %d: willard and grid substrates disagree", trial)
		}
	}
}

// Property: planted workloads have exactly the planted OUT.
func TestPropertyPlantedOut(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 30; trial++ {
		out := rng.Intn(50)
		ds, kws, region := workload.GenPlanted(workload.Planted{
			Seed: int64(trial), Objects: 500, Dim: 2, K: 2,
			Out: out, Partial: 40,
		})
		ix, err := BuildORPKW(ds, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ix.CollectInto(region, kws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != out {
			t.Fatalf("trial %d: planted OUT=%d, query returned %d", trial, out, len(got))
		}
	}
}

// Property: FullSpace queries equal pure posting-list intersection, i.e. the
// framework solves k-SI exactly (the Section 1.2 equivalence).
func TestPropertyKSIEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 60; trial++ {
		ds := randDataset(rng, 150, 2)
		ix, err := BuildKSIFromDataset(ds, 2)
		if err != nil {
			t.Fatal(err)
		}
		ws := randKws(rng, ds, 2)
		got, _, err := ix.Report(ws, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDSet(got, ds.Filter(geom.FullSpace{}, ws)) {
			t.Fatalf("trial %d: k-SI mismatch", trial)
		}
	}
}

func sameIDSet(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[int32]bool, len(a))
	for _, x := range a {
		if m[x] {
			return false // duplicate
		}
		m[x] = true
	}
	for _, x := range b {
		if !m[x] {
			return false
		}
	}
	return true
}
