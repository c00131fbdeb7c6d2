package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/spart"
	"kwsc/internal/workload"
)

func TestFrameworkRejectsBadConfig(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 1, Objects: 10, Dim: 2, Vocab: 10, DocLen: 3})
	if _, err := BuildFramework(ds, FrameworkConfig{K: 1, Splitter: &spart.KD{Dim: 2}}); err == nil {
		t.Fatal("k=1 must be rejected")
	}
	if _, err := BuildFramework(ds, FrameworkConfig{K: 2}); err == nil {
		t.Fatal("nil splitter must be rejected")
	}
}

func TestQueryValidation(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 2, Objects: 50, Dim: 2, Vocab: 20, DocLen: 4})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	u := geom.UniverseRect(2)
	if _, _, err := ix.Collect(u, []dataset.Keyword{1}, QueryOpts{}); err == nil {
		t.Fatal("wrong arity must error")
	}
	if _, _, err := ix.Collect(u, []dataset.Keyword{1, 1}, QueryOpts{}); err == nil {
		t.Fatal("duplicate keywords must error")
	}
	if _, _, err := ix.Collect(u, []dataset.Keyword{1, 2, 3}, QueryOpts{}); err == nil {
		t.Fatal("over-arity must error")
	}
	if _, _, err := ix.Collect(geom.UniverseRect(3), []dataset.Keyword{1, 2}, QueryOpts{}); err == nil {
		t.Fatal("wrong query dimension must error")
	}
}

// The large/small threshold and the materialization rule (Section 3.2):
// verified structurally on the built index.
func TestLargeSmallInvariants(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 3, Objects: 800, Dim: 2, Vocab: 40, DocLen: 5, ZipfS: 1.6})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := ix.Framework()
	k := float64(f.k)
	for u := range f.cells {
		if f.childCount[u] == 0 {
			continue
		}
		nu, L := f.nu[u], f.l[u]
		lo, hi := f.rankLo[u], f.rankLo[u]+f.rankSpan[u]
		threshold := math.Pow(float64(nu), 1-1/k)
		// Count the active set of this node: the objects of its rank interval.
		counts := map[dataset.Keyword]int64{}
		for _, id := range f.ids[lo:hi] {
			for _, w := range f.ds.Doc(id) {
				counts[w]++
			}
		}
		// Large keywords must meet the threshold; materialized lists must
		// hold exactly the active objects carrying a small keyword.
		for i := f.largeStart[u]; i < f.largeStart[u+1]; i++ {
			w, li := f.largeKeys[i], f.largeIdx[i]
			if li < 0 || li >= L {
				t.Fatalf("node %d: large index %d out of range", u, li)
			}
			if float64(counts[w]) < threshold {
				t.Fatalf("node %d: keyword %d classified large with count %d < threshold %.1f",
					u, w, counts[w], threshold)
			}
		}
		for i := f.matStart[u]; i < f.matStart[u+1]; i++ {
			w, lst := f.matKeys[i], ranksOf(f, u, i)
			if int(f.matLists[i].N) != len(lst) {
				t.Fatalf("node %d: list of keyword %d claims %d entries, holds %d", u, w, f.matLists[i].N, len(lst))
			}
			for _, r := range lst {
				if !f.ds.Has(f.ids[r], w) {
					t.Fatalf("node %d: rank %d listed under keyword %d, which its object lacks", u, r, w)
				}
			}
			if _, isLarge := f.largeLookup(int32(u), w); isLarge {
				t.Fatalf("node %d: keyword %d both large and materialized", u, w)
			}
			if float64(counts[w]) >= threshold {
				t.Fatalf("node %d: keyword %d materialized with count %d >= threshold %.1f",
					u, w, counts[w], threshold)
			}
			if int64(len(lst)) != counts[w] {
				t.Fatalf("node %d: materialized list of %d entries, active count %d",
					u, len(lst), counts[w])
			}
		}
		// The large-keyword bound of Section 3.2: at most N_u^{1/k}.
		if float64(L) > math.Pow(float64(nu), 1/k)+1 {
			t.Fatalf("node %d: %d large keywords exceeds N_u^{1/k} = %.1f",
				u, L, math.Pow(float64(nu), 1/k))
		}
	}
}

// The non-emptiness tensor is sound and complete: a bit is set iff some
// object in the child's subtree carries the whole keyword combination.
func TestTensorSoundness(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 4, Objects: 400, Dim: 2, Vocab: 12, DocLen: 4, ZipfS: 1.3})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := ix.Framework()
	for u := range f.cells {
		L := f.l[u]
		if f.childCount[u] == 0 || L < 2 {
			continue
		}
		// Invert the large table.
		byIdx := make([]dataset.Keyword, L)
		for i := f.largeStart[u]; i < f.largeStart[u+1]; i++ {
			byIdx[f.largeIdx[i]] = f.largeKeys[i]
		}
		for ci := int32(0); ci < f.childCount[u]; ci++ {
			child := f.childFirst[u] + ci
			sub := f.ids[f.rankLo[child] : f.rankLo[child]+f.rankSpan[child]]
			for a := int32(0); a < L; a++ {
				for b := a + 1; b < L; b++ {
					want := slices.ContainsFunc(sub, func(id int32) bool {
						return f.ds.Has(id, byIdx[a]) && f.ds.Has(id, byIdx[b])
					})
					got := f.tensorGet(int32(u), ci, tensorIndex([]int32{a, b}, int(L)))
					if got != want {
						t.Fatalf("node %d child %d: tensor bit (%d,%d) = %v, want %v",
							u, ci, a, b, got, want)
					}
				}
			}
		}
	}
}

func TestQueryStatsConsistency(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 5, Objects: 600, Dim: 2, Vocab: 30, DocLen: 5})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(50))
	for i := 0; i < 30; i++ {
		q := workload.RandRect(rng, 2, 0.4)
		ws := workload.RandKeywords(rng, 30, 2)
		ids, st, err := ix.Collect(q, ws, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if st.CoveredNodes+st.CrossingNodes != st.NodesVisited {
			t.Fatalf("covered+crossing != visited: %+v", st)
		}
		if st.Reported != len(ids) {
			t.Fatalf("Reported=%d but %d ids returned", st.Reported, len(ids))
		}
		if st.Ops < int64(st.NodesVisited) {
			t.Fatalf("Ops must count at least node visits: %+v", st)
		}
		if st.Truncated || st.BudgetHit {
			t.Fatalf("unlimited query cannot truncate: %+v", st)
		}
	}
}

func TestQueryLimit(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 6, Objects: 500, Dim: 2, Vocab: 8, DocLen: 4})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	u := geom.UniverseRect(2)
	full, _, err := ix.Collect(u, []dataset.Keyword{0, 1}, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 5 {
		t.Skip("workload produced too few matches for the limit test")
	}
	got, st, err := ix.Collect(u, []dataset.Keyword{0, 1}, QueryOpts{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !st.Truncated {
		t.Fatalf("limit=3: got %d results, truncated=%v", len(got), st.Truncated)
	}
	// Limit >= OUT reports everything without truncation.
	got, st, err = ix.Collect(u, []dataset.Keyword{0, 1}, QueryOpts{Limit: len(full)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(full) {
		t.Fatalf("limit=OUT: got %d, want %d", len(got), len(full))
	}
}

func TestQueryBudget(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 7, Objects: 2000, Dim: 2, Vocab: 8, DocLen: 4})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	u := geom.UniverseRect(2)
	_, st, err := ix.Collect(u, []dataset.Keyword{0, 1}, QueryOpts{Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !st.BudgetHit {
		t.Fatalf("budget of 10 ops on a 2000-object query must trip: %+v", st)
	}
	if st.Ops > 64 {
		t.Fatalf("budget overshoot too large: %d ops", st.Ops)
	}
}

// No object is ever reported twice (the pivot-vs-materialized-list overlap
// discussed in the query algorithm).
func TestNoDuplicateReports(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 8, Objects: 700, Dim: 2, Vocab: 10, DocLen: 5, ZipfS: 1.1})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(80))
	for i := 0; i < 40; i++ {
		q := workload.RandRect(rng, 2, 0.8)
		ws := workload.RandKeywords(rng, 10, 2)
		seen := map[int32]int{}
		if _, err := ix.Query(q, ws, QueryOpts{}, func(id int32) { seen[id]++ }); err != nil {
			t.Fatal(err)
		}
		for id, c := range seen {
			if c > 1 {
				t.Fatalf("object %d reported %d times", id, c)
			}
		}
	}
}

// Space audit sanity: the framework's footprint grows roughly linearly in N
// for fixed parameters (Theorem 1's O(N) words).
func TestSpaceRoughlyLinear(t *testing.T) {
	words := func(n int) int64 {
		ds := workload.Gen(workload.Config{Seed: 9, Objects: n, Dim: 2, Vocab: 200, DocLen: 6})
		ix, err := BuildORPKW(ds, 2)
		if err != nil {
			t.Fatal(err)
		}
		return ix.Space().TotalWords(64)
	}
	w1, w4 := words(1000), words(4000)
	ratio := float64(w4) / float64(w1)
	if ratio > 7 {
		t.Fatalf("space grew %0.1fx for 4x data; superlinear blow-up", ratio)
	}
}

func TestFrameworkAccessors(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 10, Objects: 300, Dim: 2, Vocab: 30, DocLen: 4})
	ix, err := BuildORPKW(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := ix.Framework()
	if f.K() != 3 || ix.K() != 3 {
		t.Fatal("K accessor wrong")
	}
	if f.Dataset() != ds {
		t.Fatal("Dataset accessor wrong")
	}
	if f.NumNodes() <= 1 {
		t.Fatal("tree did not split")
	}
	if f.Height() <= 0 {
		t.Fatal("height must be positive")
	}
	if f.MaxPivots() > 1 {
		t.Fatalf("rank-space kd pivots must be <= 1, got %d", f.MaxPivots())
	}
}

// CrossingCost: a vertical line through a 2D kd-tree framework has crossing
// sensitivity O(sqrt(N) * N^{1/2 - 1/k}) ~ O(N^{1-1/k}) (Lemma 10); sanity
// check the measured value against a generous constant.
func TestCrossingCostVerticalLine(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 11, Objects: 4096, Dim: 2, Vocab: 12, DocLen: 4, ZipfS: 1.05})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A zero-width rank rectangle behaves as a vertical line.
	n := float64(ds.N())
	rq := &geom.Rect{
		Lo: []float64{float64(ds.Len() / 2), math.Inf(-1)},
		Hi: []float64{float64(ds.Len() / 2), math.Inf(1)},
	}
	cost, err := ix.Framework().CrossingCost(rq, []dataset.Keyword{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	bound := 40 * math.Pow(n, 0.5)
	if cost > bound {
		t.Fatalf("crossing cost %.0f exceeds %.0f (N=%.0f)", cost, bound, n)
	}
}
