package core

import (
	"math/rand"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/workload"
)

// A dataset with a single object.
func TestSingleObject(t *testing.T) {
	ds := dataset.MustNew([]dataset.Object{
		{Point: geom.Point{0.5, 0.5}, Doc: []dataset.Keyword{1, 2, 3}},
	})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.CollectInto(geom.UniverseRect(2), []dataset.Keyword{1, 2}, QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d, want 1", len(got))
	}
	got, _, err = ix.CollectInto(geom.UniverseRect(2), []dataset.Keyword{1, 4}, QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d, want 0", len(got))
	}
}

// Every object at the same location: geometry degenerates entirely, keyword
// machinery must still work.
func TestAllObjectsSamePoint(t *testing.T) {
	objs := make([]dataset.Object, 200)
	rng := rand.New(rand.NewSource(1))
	for i := range objs {
		doc := make([]dataset.Keyword, 1+rng.Intn(4))
		for j := range doc {
			doc[j] = dataset.Keyword(rng.Intn(8))
		}
		objs[i] = dataset.Object{Point: geom.Point{0.5, 0.5}, Doc: doc}
	}
	ds := dataset.MustNew(objs)
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		ws := workload.RandKeywords(rng, 8, 2)
		got, _, err := ix.CollectInto(geom.UniverseRect(2), ws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		equalIDs(t, got, ds.Filter(geom.FullSpace{}, ws), "same-point")
	}
	// A rectangle missing the point returns nothing.
	off := geom.NewRect([]float64{0.6, 0.6}, []float64{0.9, 0.9})
	got, _, err := ix.CollectInto(off, []dataset.Keyword{0, 1}, QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("offset rectangle reported %d objects", len(got))
	}
}

// Every object with an identical document: one giant posting list per
// keyword; everything is "large" high in the tree.
func TestAllObjectsSameDoc(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	objs := make([]dataset.Object, 300)
	for i := range objs {
		objs[i] = dataset.Object{
			Point: geom.Point{rng.Float64(), rng.Float64()},
			Doc:   []dataset.Keyword{0, 1, 2},
		}
	}
	ds := dataset.MustNew(objs)
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		q := workload.RandRect(rng, 2, 0.3)
		got, _, err := ix.CollectInto(q, []dataset.Keyword{0, 2}, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		equalIDs(t, got, ds.Filter(q, []dataset.Keyword{0, 2}), "same-doc")
	}
}

// Query keywords entirely absent from the vocabulary.
func TestAbsentKeywords(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 3, Objects: 100, Dim: 2, Vocab: 10, DocLen: 3})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := ix.CollectInto(geom.UniverseRect(2), []dataset.Keyword{9999, 10000}, QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("absent keywords reported %d objects", len(got))
	}
	// An absent keyword is small at the root with an empty list: the query
	// must terminate essentially immediately.
	if st.NodesVisited > 1 {
		t.Fatalf("absent-keyword query visited %d nodes", st.NodesVisited)
	}
}

// One keyword present, one absent.
func TestHalfAbsentKeywords(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 4, Objects: 100, Dim: 2, Vocab: 10, DocLen: 3})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.CollectInto(geom.UniverseRect(2), []dataset.Keyword{0, 9999}, QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d, want 0", len(got))
	}
}

// Degenerate query rectangles: points and lines.
func TestDegenerateQueryRects(t *testing.T) {
	ds := dataset.MustNew([]dataset.Object{
		{Point: geom.Point{0.25, 0.25}, Doc: []dataset.Keyword{0, 1}},
		{Point: geom.Point{0.75, 0.75}, Doc: []dataset.Keyword{0, 1}},
		{Point: geom.Point{0.25, 0.75}, Doc: []dataset.Keyword{0, 2}},
	})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Point query hitting an object exactly.
	pt := geom.NewRect([]float64{0.25, 0.25}, []float64{0.25, 0.25})
	got, _, err := ix.CollectInto(pt, []dataset.Keyword{0, 1}, QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("point query = %v, want [0]", got)
	}
	// Vertical line through x=0.25.
	line := geom.NewRect([]float64{0.25, 0}, []float64{0.25, 1})
	got, _, err = ix.CollectInto(line, []dataset.Keyword{0, 1}, QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("line query = %v, want one object", got)
	}
}

// k larger than any document size: no object can ever match.
func TestKExceedsDocSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	objs := make([]dataset.Object, 100)
	for i := range objs {
		objs[i] = dataset.Object{
			Point: geom.Point{rng.Float64(), rng.Float64()},
			Doc:   []dataset.Keyword{dataset.Keyword(rng.Intn(5)), dataset.Keyword(5 + rng.Intn(5))},
		}
	}
	ds := dataset.MustNew(objs)
	ix, err := BuildORPKW(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.CollectInto(geom.UniverseRect(2), []dataset.Keyword{0, 1, 5, 6}, QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("k=4 over 2-keyword docs reported %d objects", len(got))
	}
}

// 1-dimensional ORP-KW (the d <= 2 statement includes d = 1).
func TestORPKW1D(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	objs := make([]dataset.Object, 300)
	for i := range objs {
		doc := make([]dataset.Keyword, 1+rng.Intn(4))
		for j := range doc {
			doc[j] = dataset.Keyword(rng.Intn(12))
		}
		objs[i] = dataset.Object{Point: geom.Point{rng.Float64()}, Doc: doc}
	}
	ds := dataset.MustNew(objs)
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		a := rng.Float64() * 0.8
		q := geom.NewRect([]float64{a}, []float64{a + 0.2})
		ws := workload.RandKeywords(rng, 12, 2)
		got, _, err := ix.CollectInto(q, ws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		equalIDs(t, got, ds.Filter(q, ws), "orpkw-1d")
	}
}

// Large k (k=5) exercises the combination enumeration and tensors.
func TestK5(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	objs := make([]dataset.Object, 400)
	for i := range objs {
		doc := make([]dataset.Keyword, 6)
		for j := range doc {
			doc[j] = dataset.Keyword(rng.Intn(10))
		}
		objs[i] = dataset.Object{Point: geom.Point{rng.Float64(), rng.Float64()}, Doc: doc}
	}
	ds := dataset.MustNew(objs)
	ix, err := BuildORPKW(ds, 5)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 15; trial++ {
		q := workload.RandRect(rng, 2, 0.7)
		ws := workload.RandKeywords(rng, 10, 5)
		got, _, err := ix.CollectInto(q, ws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		equalIDs(t, got, ds.Filter(q, ws), "k5")
	}
}

// Empty result on a populated region: keyword pair that never co-occurs.
func TestDisjointKeywordPair(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	objs := make([]dataset.Object, 500)
	for i := range objs {
		// Keyword parity split: even objects get even keywords.
		base := dataset.Keyword((i % 2))
		objs[i] = dataset.Object{
			Point: geom.Point{rng.Float64(), rng.Float64()},
			Doc:   []dataset.Keyword{base, base + 2, base + 4},
		}
	}
	ds := dataset.MustNew(objs)
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := ix.CollectInto(geom.UniverseRect(2), []dataset.Keyword{0, 1}, QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("parity-disjoint keywords reported %d objects", len(got))
	}
	// The tensor prunes this everywhere: far fewer ops than N.
	if st.Ops > ds.N() {
		t.Fatalf("OUT=0 query did Theta(N) work: %d ops for N=%d", st.Ops, ds.N())
	}
}

// The structured-only baseline agrees with the oracle.
func TestStructuredOnlyBaseline(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 9, Objects: 400, Dim: 2, Vocab: 20, DocLen: 4})
	b := BuildStructuredOnly(ds, nil)
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < 30; trial++ {
		q := workload.RandRect(rng, 2, 0.4)
		ws := workload.RandKeywords(rng, 20, 2)
		got, candidates, _ := b.Query(q, ws)
		want := ds.Filter(q, ws)
		equalIDs(t, got, want, "structured-only")
		if candidates < len(want) {
			t.Fatal("candidate count below result count")
		}
	}
	if b.Tree() == nil {
		t.Fatal("Tree accessor broken")
	}
}

// LCKW rejects an empty constraint list.
func TestLCKWNoConstraints(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 10, Objects: 50, Dim: 2, Vocab: 10, DocLen: 3})
	ix, err := BuildSPKW(ds, SPKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.CollectInto(nil, []dataset.Keyword{0, 1}, QueryOpts{}, nil); err == nil {
		t.Fatal("empty constraint list must error")
	}
}

// SP-KW simplex entry point (Theorem 12's native query shape).
func TestSPKWSimplexQuery(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 11, Objects: 400, Dim: 2, Vocab: 20, DocLen: 4})
	ix, err := BuildSPKW(ds, SPKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(110))
	for trial := 0; trial < 25; trial++ {
		tri := geom.NewSimplex(
			geom.Point{rng.Float64(), rng.Float64()},
			geom.Point{rng.Float64() + 0.5, rng.Float64()},
			geom.Point{rng.Float64(), rng.Float64() + 0.5},
		)
		ph, err := tri.Polyhedron()
		if err != nil {
			continue
		}
		ws := workload.RandKeywords(rng, 20, 2)
		var got []int32
		if _, err := ix.Query(ph.HS, ws, QueryOpts{}, func(id int32) { got = append(got, id) }); err != nil {
			t.Fatal(err)
		}
		equalIDs(t, got, ds.Filter(ph, ws), "spkw-simplex")
	}
}

// SRP-KW direct-region ablation: sphere queries without lifting agree with
// the lifted index.
func TestSRPKWDirectVsLifted(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 12, Objects: 400, Dim: 2, Vocab: 20, DocLen: 4})
	lifted, err := BuildSRPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := BuildSPKW(ds, SPKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(120))
	for trial := 0; trial < 25; trial++ {
		s := geom.NewSphere(geom.Point{rng.Float64(), rng.Float64()}, 0.05+rng.Float64()*0.25)
		ws := workload.RandKeywords(rng, 20, 2)
		a, _, err := lifted.CollectInto(s, ws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var b []int32
		if _, err := direct.Framework().Query(s, ws, QueryOpts{}, func(id int32) { b = append(b, id) }); err != nil {
			t.Fatal(err)
		}
		equalIDs(t, a, b, "srpkw-routes")
	}
}

// Appendix D reduction fidelity: answering an LC-KW query by partitioning
// the constraint polyhedron into simplices (the paper's route) returns the
// same result as querying the polyhedron directly (our default route).
func TestLCKWSimplexPartitionRoute(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 13, Objects: 500, Dim: 2, Vocab: 20, DocLen: 4})
	ix, err := BuildSPKW(ds, SPKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(130))
	tested := 0
	for trial := 0; trial < 40 && tested < 25; trial++ {
		s := 1 + rng.Intn(3)
		hs := workload.RandHalfspaces(rng, 2, s, 0.3+rng.Float64()*0.5)
		ws := workload.RandKeywords(rng, 20, 2)
		direct, _, err := ix.CollectInto(hs, ws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var viaSimplices []int32
		if _, err := ix.QueryConstraintsViaSimplices(hs, ws, func(id int32) {
			viaSimplices = append(viaSimplices, id)
		}); err != nil {
			continue // near-degenerate triangulation; skip this draw
		}
		tested++
		equalIDs(t, viaSimplices, direct, "simplex-partition-route")
	}
	if tested < 10 {
		t.Fatalf("only %d triangulations succeeded; route too fragile", tested)
	}
}
