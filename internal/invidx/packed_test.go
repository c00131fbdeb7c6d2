package invidx

import (
	"fmt"
	"math/rand"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/workload"
)

// naiveIntersect is the reference: sorted-merge over raw posting lists.
func naiveIntersect(lists [][]int32) []int32 {
	if len(lists) == 0 {
		return nil
	}
	out := append([]int32(nil), lists[0]...)
	for _, l := range lists[1:] {
		var next []int32
		i, j := 0, 0
		for i < len(out) && j < len(l) {
			switch {
			case out[i] < l[j]:
				i++
			case out[i] > l[j]:
				j++
			default:
				next = append(next, out[i])
				i++
				j++
			}
		}
		out = next
	}
	return out
}

func dsFromDocs(t *testing.T, docs [][]dataset.Keyword) *dataset.Dataset {
	t.Helper()
	objs := make([]dataset.Object, len(docs))
	for i, d := range docs {
		objs[i] = dataset.Object{Point: geom.Point{float64(i)}, Doc: d}
	}
	ds, err := dataset.New(objs)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func checkIDs(t *testing.T, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d ids, want %d (got %v, want %v)", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("id %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

// crossCheck verifies raw, packed, and naive intersections agree.
func crossCheck(t *testing.T, ds *dataset.Dataset, ws []dataset.Keyword) {
	t.Helper()
	ix := Build(ds)
	p := ix.Pack()
	lists := make([][]int32, len(ws))
	empty := false
	for i, w := range ws {
		lists[i] = ix.Posting(w)
		if len(lists[i]) == 0 {
			empty = true
		}
	}
	var want []int32
	if !empty {
		want = naiveIntersect(lists)
	}
	checkIDs(t, ix.Intersect(ws), want)
	checkIDs(t, p.Intersect(ws), want)
	if gotEmpty := p.Empty(ws); gotEmpty != (len(want) == 0) {
		t.Fatalf("Empty(%v) = %v, want %v", ws, gotEmpty, len(want) == 0)
	}
}

func TestPackedEmptyPosting(t *testing.T) {
	ds := dsFromDocs(t, [][]dataset.Keyword{{1, 2}, {1, 3}, {2, 3}})
	crossCheck(t, ds, []dataset.Keyword{1, 99}) // 99 never occurs
	crossCheck(t, ds, []dataset.Keyword{1, 2})
	crossCheck(t, ds, []dataset.Keyword{3}) // one keyword: its whole list
	crossCheck(t, ds, []dataset.Keyword{99})
	p := BuildPacked(ds)
	if got := p.Intersect([]dataset.Keyword{99, 100}); got != nil {
		t.Fatalf("absent keywords: got %v, want nil", got)
	}
	if got := p.Intersect(nil); got != nil {
		t.Fatalf("no keywords: got %v, want nil", got)
	}
	if !p.Empty([]dataset.Keyword{1, 99}) || !p.Empty(nil) {
		t.Fatal("Empty must be true for absent keywords and empty queries")
	}
}

func TestPackedSingletonBlocks(t *testing.T) {
	// Lists of length 1 (single singleton block) intersecting lists of
	// every size around the block boundary.
	docs := make([][]dataset.Keyword, 300)
	for i := range docs {
		docs[i] = []dataset.Keyword{1}
		if i == 137 {
			docs[i] = []dataset.Keyword{1, 2} // keyword 2: singleton list
		}
		if i == 0 || i == 299 {
			docs[i] = append(docs[i], 3) // keyword 3: two entries at the edges
		}
	}
	ds := dsFromDocs(t, docs)
	crossCheck(t, ds, []dataset.Keyword{1, 2})
	crossCheck(t, ds, []dataset.Keyword{2, 1})
	crossCheck(t, ds, []dataset.Keyword{1, 3})
	crossCheck(t, ds, []dataset.Keyword{2, 3}) // disjoint singletons
}

func TestPackedAllEqualDocs(t *testing.T) {
	// Every object carries the same document: all lists are identical and
	// full-length, so every id survives and every block decodes.
	for _, n := range []int{1, 127, 128, 129, 1000} {
		docs := make([][]dataset.Keyword, n)
		for i := range docs {
			docs[i] = []dataset.Keyword{5, 6, 7}
		}
		ds := dsFromDocs(t, docs)
		p := BuildPacked(ds)
		got := p.Intersect([]dataset.Keyword{5, 6, 7})
		if len(got) != n {
			t.Fatalf("n=%d: got %d ids, want all %d", n, len(got), n)
		}
		for i, id := range got {
			if id != int32(i) {
				t.Fatalf("n=%d: id[%d] = %d", n, i, id)
			}
		}
	}
}

func TestPackedAdversarialSkew(t *testing.T) {
	// One list of 1M sequential ids against one 3-element list: the packed
	// intersection must decode only the blocks around the three candidates,
	// not the megalist.
	const big = 1 << 20
	sparse := []int32{3, big / 2, big - 1}
	ix := &Index{postings: map[dataset.Keyword][]int32{}}
	bigList := make([]int32, big)
	for i := range bigList {
		bigList[i] = int32(i)
	}
	ix.postings[1] = bigList
	ix.postings[2] = sparse
	p := ix.Pack()
	got := p.Intersect([]dataset.Keyword{1, 2})
	checkIDs(t, got, sparse)
	got = p.Intersect([]dataset.Keyword{2, 1})
	checkIDs(t, got, sparse)
	if p.Empty([]dataset.Keyword{1, 2}) {
		t.Fatal("skewed intersection is non-empty")
	}
	// The reverse skew with no matches: sparse ids in the gaps.
	ix.postings[3] = []int32{}
	gap := make([]int32, 0, big/2)
	for i := 1; i < big; i += 2 {
		gap = append(gap, int32(i))
	}
	ix.postings[4] = gap // odd ids only
	ix.postings[5] = []int32{0, 2, big - 2}
	p = ix.Pack()
	if got := p.Intersect([]dataset.Keyword{4, 5}); len(got) != 0 {
		t.Fatalf("disjoint skew: got %v, want empty", got)
	}
	if !p.Empty([]dataset.Keyword{4, 5}) {
		t.Fatal("disjoint skew must be Empty")
	}
}

func TestPackedRandomCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(600)
		vocab := 4 + rng.Intn(10)
		docs := make([][]dataset.Keyword, n)
		for i := range docs {
			k := 1 + rng.Intn(4)
			seen := map[dataset.Keyword]bool{}
			for len(docs[i]) < k {
				w := dataset.Keyword(rng.Intn(vocab))
				if !seen[w] {
					seen[w] = true
					docs[i] = append(docs[i], w)
				}
			}
		}
		ds := dsFromDocs(t, docs)
		nws := 2 + rng.Intn(3)
		seen := map[dataset.Keyword]bool{}
		var ws []dataset.Keyword
		for len(ws) < nws {
			w := dataset.Keyword(rng.Intn(vocab + 1))
			if !seen[w] {
				seen[w] = true
				ws = append(ws, w)
			}
		}
		crossCheck(t, ds, ws)
	}
}

func TestPackedKeywordsOnlyMatchesRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	docs := make([][]dataset.Keyword, 500)
	for i := range docs {
		docs[i] = []dataset.Keyword{dataset.Keyword(rng.Intn(4)), 4 + dataset.Keyword(rng.Intn(4))}
	}
	ds := dsFromDocs(t, docs)
	ix := Build(ds)
	p := ix.Pack()
	q := geom.NewRect([]float64{100}, []float64{400})
	for a := dataset.Keyword(0); a < 4; a++ {
		for b := dataset.Keyword(4); b < 8; b++ {
			ws := []dataset.Keyword{a, b}
			checkIDs(t, p.KeywordsOnly(q, ws), ix.KeywordsOnly(q, ws))
		}
	}
}

func TestPackedSpaceSmallerOnDenseLists(t *testing.T) {
	// Dense sequential lists: deltas of 1 pack at ~1-2 bits per id, so the
	// packed arena must be far below the raw half-word-per-id footprint.
	docs := make([][]dataset.Keyword, 1<<14)
	for i := range docs {
		docs[i] = []dataset.Keyword{0, 1}
	}
	ds := dsFromDocs(t, docs)
	ix := Build(ds)
	p := ix.Pack()
	if raw, packed := ix.SpaceWords(), p.SpaceWords(); packed*4 > raw {
		t.Fatalf("packed %d words vs raw %d: expected >= 4x compression on dense lists", packed, raw)
	}
}

// The deterministic-ordering regression: equal-length lists must be ordered
// by keyword id, and any permutation of ws must produce the same list order
// (the satellite fix for the sort.Slice tie instability).
func TestOrderedListsDeterministic(t *testing.T) {
	docs := make([][]dataset.Keyword, 200)
	for i := range docs {
		docs[i] = []dataset.Keyword{0, 1, 2} // three identical-length lists
	}
	docs[0] = []dataset.Keyword{0, 1, 2, 3} // keyword 3: shorter list
	ds := dsFromDocs(t, docs)
	ix := Build(ds)
	perms := [][]dataset.Keyword{
		{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1},
	}
	var wantLens []int
	for pi, ws := range perms {
		lists, ok := ix.orderedLists(ws)
		if !ok {
			t.Fatal("all keywords present")
		}
		lens := make([]int, len(lists))
		for i, l := range lists {
			lens[i] = len(l)
		}
		// Smallest first; ties must come out in keyword order 0,1,2.
		if lens[0] != 1 {
			t.Fatalf("perm %d: shortest list not first: %v", pi, lens)
		}
		if pi == 0 {
			wantLens = lens
		} else {
			for i := range lens {
				if lens[i] != wantLens[i] {
					t.Fatalf("perm %d: ordering differs: %v vs %v", pi, lens, wantLens)
				}
			}
		}
		// The tie-broken tail must be exactly the postings of keywords 0,1,2.
		for i, w := range []dataset.Keyword{0, 1, 2} {
			got := lists[i+1]
			want := ix.Posting(w)
			if &got[0] != &want[0] {
				t.Fatalf("perm %d: tie position %d is not keyword %d's list", pi, i, w)
			}
		}
	}
	// The same Intersect answer, byte for byte, under every permutation.
	base := ix.Intersect(perms[0])
	packed := ix.Pack()
	for _, ws := range perms {
		checkIDs(t, ix.Intersect(ws), base)
		checkIDs(t, packed.Intersect(ws), base)
	}
}

// BenchmarkPackedIntersect times Packed.IntersectInto on the planted corpus
// of BenchmarkStopNodeIntersect (N=65 536, every planted keyword in about an
// eighth of the objects): k=1 is the whole-list decode, k=2 and k=3 the
// cursor leapfrog. No other benchmark reaches this type — the framework's
// fallback baseline is invidx.Index, and bench/ reports core.fallbacks = 0.
func BenchmarkPackedIntersect(b *testing.B) {
	ds, ws, _ := workload.GenPlanted(workload.Planted{
		Seed: 1, Objects: 1 << 16, Dim: 2, K: 3, Out: 64, Partial: 1 << 13,
	})
	p := BuildPacked(ds)
	for k := 1; k <= len(ws); k++ {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			dst := make([]int32, 0, p.DocFrequency(ws[0]))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = p.IntersectInto(dst[:0], ws[:k])
			}
			if len(dst) == 0 {
				b.Fatal("planted keywords must intersect")
			}
		})
	}
}
