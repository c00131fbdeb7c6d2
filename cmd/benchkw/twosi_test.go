package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/workload"
)

func buildRandomDocs(rng *rand.Rand, n, vocab int) *dataset.Dataset {
	objs := make([]dataset.Object, n)
	for i := range objs {
		l := 1 + rng.Intn(5)
		doc := make([]dataset.Keyword, l)
		for j := range doc {
			doc[j] = dataset.Keyword(rng.Intn(vocab))
		}
		objs[i] = dataset.Object{Point: geom.Point{0}, Doc: doc}
	}
	return dataset.MustNew(objs)
}

func bruteTwoSI(ds *dataset.Dataset, a, b dataset.Keyword) []int32 {
	var out []int32
	for i := 0; i < ds.Len(); i++ {
		if ds.Has(int32(i), a) && ds.Has(int32(i), b) {
			out = append(out, int32(i))
		}
	}
	return out
}

// The index ignores the points, so a spatial dataset's answer is the keyword
// filter over the whole space.
func TestReportMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ds := range []*dataset.Dataset{
		buildRandomDocs(rng, 500, 16),
		workload.Gen(workload.Config{Seed: 8, Objects: 300, Dim: 2, Vocab: 16, DocLen: 3}),
	} {
		ix := buildTwoSI(ds)
		for a := dataset.Keyword(0); a < 16; a++ {
			for b := a + 1; b < 16; b++ {
				got, _, err := ix.report(a, b)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteTwoSI(ds, a, b)
				sort.Slice(got, func(x, y int) bool { return got[x] < got[y] })
				if len(got) != len(want) {
					t.Fatalf("(%d,%d): got %d, want %d", a, b, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("(%d,%d): element %d mismatch", a, b, i)
					}
				}
			}
		}
	}
}

func TestDuplicateKeywordRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ix := buildTwoSI(buildRandomDocs(rng, 50, 8))
	if _, _, err := ix.report(3, 3); err == nil {
		t.Fatal("duplicate keyword must error")
	}
}

func TestAbsentKeywords(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := buildRandomDocs(rng, 100, 8)
	ix := buildTwoSI(ds)
	got, st, err := ix.report(100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("absent keywords produced results")
	}
	if st.Scanned > 0 {
		t.Fatalf("absent keywords scanned %d entries", st.Scanned)
	}
}

// The sqrt(N) (1 + sqrt(OUT)) shape: on a worst-case-shaped input (two
// sub-threshold disjoint posting lists) the scan cost stays O(sqrt(N)).
func TestEmptyIntersectionCostSqrtN(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		partial := int(0.9 * math.Sqrt(float64(3*n)))
		objs := make([]dataset.Object, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range objs {
			doc := []dataset.Keyword{2 + dataset.Keyword(rng.Intn(60)), 64 + dataset.Keyword(rng.Intn(60))}
			switch {
			case i < partial:
				doc[0] = 0
			case i < 2*partial:
				doc[0] = 1
			}
			objs[i] = dataset.Object{Point: geom.Point{0}, Doc: doc}
		}
		ds := dataset.MustNew(objs)
		ix := buildTwoSI(ds)
		got, st, err := ix.report(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatal("planted intersection should be empty")
		}
		bound := int64(20 * math.Sqrt(float64(ds.N())))
		if st.Scanned+int64(st.NodesVisited) > bound {
			t.Fatalf("n=%d: cost %d exceeds O(sqrt N) bound %d",
				n, st.Scanned+int64(st.NodesVisited), bound)
		}
	}
}

// The Cohen–Porat structure on the E9 workload.
func BenchmarkExtTwoSI(b *testing.B) {
	ds, kws, _ := workload.GenPlanted(workload.Planted{Seed: 22, Objects: 1 << 15, Dim: 2, K: 2, Out: 64, Partial: 1 << 12})
	ix := buildTwoSI(ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.report(kws[0], kws[1]); err != nil {
			b.Fatal(err)
		}
	}
}
