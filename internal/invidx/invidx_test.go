package invidx

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

func buildRandom(rng *rand.Rand, n, vocab, docLen int) *dataset.Dataset {
	objs := make([]dataset.Object, n)
	for i := range objs {
		l := 1 + rng.Intn(docLen)
		doc := make([]dataset.Keyword, l)
		for j := range doc {
			doc[j] = dataset.Keyword(rng.Intn(vocab))
		}
		objs[i] = dataset.Object{
			Point: geom.Point{rng.Float64(), rng.Float64()},
			Doc:   doc,
		}
	}
	return dataset.MustNew(objs)
}

func bruteIntersect(ds *dataset.Dataset, ws []dataset.Keyword) []int32 {
	var out []int32
	for i := 0; i < ds.Len(); i++ {
		if ds.HasAll(int32(i), ws) {
			out = append(out, int32(i))
		}
	}
	return out
}

func TestPostingListsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := buildRandom(rng, 200, 30, 6)
	ix := Build(ds)
	for w := 0; w < 30; w++ {
		l := ix.Posting(dataset.Keyword(w))
		if !sort.SliceIsSorted(l, func(a, b int) bool { return l[a] < l[b] }) {
			t.Fatalf("posting list %d not sorted", w)
		}
		if len(l) != ix.DocFrequency(dataset.Keyword(w)) {
			t.Fatal("DocFrequency disagrees with Posting length")
		}
	}
}

func TestIntersectMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := buildRandom(rng, 300, 20, 6)
	ix := Build(ds)
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.Intn(3)
		ws := make([]dataset.Keyword, 0, k)
		seen := map[dataset.Keyword]bool{}
		for len(ws) < k {
			w := dataset.Keyword(rng.Intn(20))
			if !seen[w] {
				seen[w] = true
				ws = append(ws, w)
			}
		}
		got := ix.Intersect(ws)
		want := bruteIntersect(ds, ws)
		if len(got) != len(want) {
			t.Fatalf("trial %d: intersect size %d, want %d", trial, len(got), len(want))
		}
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: element %d mismatch", trial, i)
			}
		}
		if ix.Empty(ws) != (len(want) == 0) {
			t.Fatalf("trial %d: emptiness mismatch", trial)
		}
	}
}

func TestIntersectMissingKeyword(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := buildRandom(rng, 50, 10, 4)
	ix := Build(ds)
	if got := ix.Intersect([]dataset.Keyword{0, 9999}); got != nil {
		t.Fatalf("intersection with absent keyword = %v, want nil", got)
	}
	if !ix.Empty([]dataset.Keyword{0, 9999}) {
		t.Fatal("emptiness with absent keyword")
	}
	if got := ix.Intersect(nil); got != nil {
		t.Fatal("empty keyword list must yield nil")
	}
	if !ix.Empty(nil) {
		t.Fatal("empty keyword list is empty")
	}
}

func TestKeywordsOnlyBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := buildRandom(rng, 300, 15, 5)
	ix := Build(ds)
	for trial := 0; trial < 50; trial++ {
		q := geom.NewRect(
			[]float64{rng.Float64() * 0.5, rng.Float64() * 0.5},
			[]float64{0.5 + rng.Float64()*0.5, 0.5 + rng.Float64()*0.5},
		)
		ws := []dataset.Keyword{dataset.Keyword(rng.Intn(15)), dataset.Keyword(15 - 1 - rng.Intn(7))}
		if ws[0] == ws[1] {
			continue
		}
		got := ix.KeywordsOnly(q, ws)
		want := ds.Filter(q, ws)
		if len(got) != len(want) {
			t.Fatalf("trial %d: baseline size %d, want %d", trial, len(got), len(want))
		}
	}
}

func TestScanCost(t *testing.T) {
	ds := dataset.MustNew([]dataset.Object{
		{Point: geom.Point{0, 0}, Doc: []dataset.Keyword{1, 2}},
		{Point: geom.Point{1, 1}, Doc: []dataset.Keyword{1}},
	})
	ix := Build(ds)
	if c := ix.ScanCost([]dataset.Keyword{1, 2}); c != 3 {
		t.Fatalf("ScanCost = %d, want 3", c)
	}
}

func TestSpaceWordsPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ix := Build(buildRandom(rng, 100, 10, 4))
	if ix.SpaceWords() <= 0 {
		t.Fatal("SpaceWords must be positive")
	}
}

func TestGallopContains(t *testing.T) {
	l := []int32{2, 4, 8, 16, 32, 64}
	for _, v := range l {
		if !gallopContains(l, v) {
			t.Fatalf("missing %d", v)
		}
	}
	for _, v := range []int32{0, 3, 5, 100} {
		if gallopContains(l, v) {
			t.Fatalf("phantom %d", v)
		}
	}
	if gallopContains(nil, 1) {
		t.Fatal("empty list contains nothing")
	}
}

// Property: gallopContains agrees with linear search on sorted random lists.
func TestGallopContainsProperty(t *testing.T) {
	f := func(raw []int32, probes []int32) bool {
		l := append([]int32(nil), raw...)
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		for _, p := range probes {
			want := false
			for _, v := range l {
				if v == p {
					want = true
					break
				}
			}
			if gallopContains(l, p) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The deterministic-ordering regression: equal-length lists must be ordered
// by keyword id, and any permutation of ws must produce the same list order
// (the fix for the sort.Slice tie instability).
func TestOrderedListsDeterministic(t *testing.T) {
	objs := make([]dataset.Object, 200)
	for i := range objs {
		objs[i] = dataset.Object{Point: geom.Point{float64(i)}, Doc: []dataset.Keyword{0, 1, 2}} // three identical-length lists
	}
	objs[0].Doc = []dataset.Keyword{0, 1, 2, 3} // keyword 3: shorter list
	ix := Build(dataset.MustNew(objs))
	perms := [][]dataset.Keyword{
		{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1},
	}
	base := ix.Intersect(perms[0])
	for pi, ws := range perms {
		lists, ok := ix.orderedLists(ws)
		if !ok {
			t.Fatal("all keywords present")
		}
		// Smallest first; the tie-broken tail must be exactly the postings
		// of keywords 0, 1, 2, in that order.
		if len(lists[0]) != 1 {
			t.Fatalf("perm %d: shortest list not first", pi)
		}
		for i, w := range []dataset.Keyword{0, 1, 2} {
			if &lists[i+1][0] != &ix.Posting(w)[0] {
				t.Fatalf("perm %d: tie position %d is not keyword %d's list", pi, i, w)
			}
		}
		// The same Intersect answer under every permutation.
		if got := ix.Intersect(ws); len(got) != len(base) || got[0] != base[0] {
			t.Fatalf("perm %d: Intersect = %v, want %v", pi, got, base)
		}
	}
}
