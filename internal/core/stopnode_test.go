package core

import (
	"errors"
	"fmt"
	"math"
	mbits "math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"kwsc/internal/bits"
	"kwsc/internal/codec"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/spart"
	"kwsc/internal/workload"
)

// Tests of the stop-node intersection (qctx.intersectSmall): hand-made stop
// nodes pin the list shapes exactly, built indexes cover whatever shapes the
// construction produces, and dataset.Filter is the oracle for both.

// fillerBase is the first of the keywords that only pad documents.
const fillerBase = 1000

// countedDataset returns n objects at random points of the unit square in
// which keyword w occurs in exactly counts[w] documents, chosen at random.
func countedDataset(rng *rand.Rand, n int, counts map[dataset.Keyword]int) *dataset.Dataset {
	objs := make([]dataset.Object, n)
	for i := range objs {
		objs[i] = dataset.Object{
			Point: geom.Point{rng.Float64(), rng.Float64()},
			Doc:   []dataset.Keyword{fillerBase + dataset.Keyword(i%7)},
		}
	}
	ws := make([]dataset.Keyword, 0, len(counts))
	for w := range counts {
		ws = append(ws, w)
	}
	slices.Sort(ws) // map order must not reach the rng
	for _, w := range ws {
		for _, i := range rng.Perm(n)[:counts[w]] {
			objs[i].Doc = append(objs[i].Doc, w)
		}
	}
	return dataset.MustNew(objs)
}

// stopNodeFramework hand-builds a framework over ds whose root is a stop node
// for any query drawn from large ∪ small ∪ {absent keywords}: the keywords of
// large sit in its T_u table, those of small carry their full posting list as
// the materialized list. Below the root hangs a plain kd tree over the points
// (leaves of at most 8, no keyword payload): no keyword descent reaches it,
// but the clip of a crossing stop node descends its cells. A dataset too
// small to split keeps every object a root pivot above one empty leaf. dense
// picks a list's representation from its keyword and length; nil applies the
// builder's rule (denseList).
func stopNodeFramework(ds *dataset.Dataset, k int, large, small []dataset.Keyword, dense func(w dataset.Keyword, n int) bool) *Framework {
	n := ds.Len()
	if dense == nil {
		dense = func(_ dataset.Keyword, ln int) bool { return denseList(ln, n) }
	}
	pdim := ds.Dim()
	split := &spart.KD{Dim: pdim}
	pts := make([]geom.Point, n)
	weight := make([]int32, n)
	objs := make([]int32, n)
	for i := range objs {
		objs[i], pts[i], weight[i] = int32(i), ds.Point(int32(i)), ds.DocLen(int32(i))
	}
	var nodes []fnode
	ids := make([]int32, 0, n) // rank -> id, in leaf order
	var build func(cell spart.Cell, objs []int32, depth int) int32
	build = func(cell spart.Cell, objs []int32, depth int) int32 {
		u := int32(len(nodes))
		nodes = append(nodes, fnode{lo: int32(len(ids))})
		cells, assign, ok := split.Split(cell, objs, pts, weight, depth)
		if !ok || (depth > 0 && len(objs) <= 8) {
			ids = append(ids, objs...)
			nodes[u].npiv, nodes[u].hi = int32(len(objs)), int32(len(ids))
			return u
		}
		groups := make([][]int32, len(cells))
		for i, id := range objs {
			if a := assign[i]; a == spart.PivotChild {
				ids = append(ids, id)
				nodes[u].npiv++
			} else {
				groups[a] = append(groups[a], id)
			}
		}
		for c, g := range groups {
			if len(g) > 0 {
				child := build(cells[c], g, depth+1)
				nodes[u].children = append(nodes[u].children, child)
			}
		}
		nodes[u].hi = int32(len(ids))
		return u
	}
	build(split.RootCell(pts, objs), objs, 0)
	root := &nodes[0]
	if len(root.children) == 0 {
		root.children = []int32{int32(len(nodes))}
		nodes = append(nodes, fnode{lo: int32(n), hi: int32(n)})
		root = &nodes[0]
	}
	coords, docStart, docWords := make([]float64, 0, n*pdim), []int64{0}, []dataset.Keyword(nil)
	for _, id := range ids {
		coords, docWords = append(coords, ds.Point(id)...), append(docWords, ds.Doc(id)...)
		docStart = append(docStart, int64(len(docWords)))
	}
	rows, err := dataset.FromColumns(pdim, coords, docStart, docWords)
	if err != nil {
		panic(err)
	}
	kw := &kwNode{large: slices.Clone(large)}
	root.nu, root.kw = ds.N(), kw
	kw.tensors = make([]uint64, len(root.children)*int((tensorSize(len(large), k)+63)/64))
	for _, w := range small {
		var ranks []int32
		for r, id := range ids {
			if ds.Has(id, w) {
				ranks = append(ranks, int32(r))
			}
		}
		l := matList{n: int32(len(ranks)), ranks: ranks}
		if dense(w, len(ranks)) {
			l.ranks, l.words = nil, make([]uint64, bitmapWords(n))
			for _, r := range ranks {
				l.words[r>>6] |= 1 << (uint(r) & 63)
			}
		}
		kw.mat = append(kw.mat, w)
		kw.lists = append(kw.lists, l)
	}
	f := &Framework{k: k, split: split, ids: ids, rows: *rows, pdim: pdim}
	f.pack(nodes, nil)
	if err := f.derive(); err != nil {
		panic(err)
	}
	return f
}

// ranksOf returns the ranks list i of node u holds, whichever way it stores
// them.
func ranksOf(f *Framework, u int, i int32) []int32 {
	l := f.matLists[i]
	if l.Rep == ListRanks {
		return f.matRanks[l.Start : l.Start+l.N]
	}
	var out []int32
	for wi, w := range f.matBits[l.Start : int(l.Start)+bitmapWords(int(f.rankSpan[u]))] {
		for ; w != 0; w &= w - 1 {
			out = append(out, f.rankLo[u]+int32(wi<<6+mbits.TrailingZeros64(w)))
		}
	}
	return out
}

func TestStopNodeIntersectHandBuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// Keywords 1..3 are long lists — dense by the builder's rule, so bitmaps —
	// 4..9 short, sparse ones, 10 is a three-id list; 900 occurs nowhere.
	counts := map[dataset.Keyword]int{
		1: 9000, 2: 7000, 3: 5000,
		4: 127, 5: 128, 6: 129, 7: 255, 8: 256, 9: 257, 10: 3,
	}
	ds := countedDataset(rng, 20_000, counts)
	const absent = dataset.Keyword(900)
	cases := []struct {
		name         string
		large, small []dataset.Keyword
		ws           []dataset.Keyword
	}{
		{"k2/one-small", []dataset.Keyword{1}, []dataset.Keyword{4}, []dataset.Keyword{1, 4}},
		{"k2/one-small/dense", []dataset.Keyword{2}, []dataset.Keyword{1}, []dataset.Keyword{1, 2}},
		{"k2/all-small/127v128", nil, []dataset.Keyword{4, 5}, []dataset.Keyword{5, 4}},
		{"k2/all-small/129v257", nil, []dataset.Keyword{6, 9}, []dataset.Keyword{6, 9}},
		{"k2/all-small/long", nil, []dataset.Keyword{1, 2}, []dataset.Keyword{1, 2}},
		{"k2/skew-3-vs-9000", nil, []dataset.Keyword{1, 10}, []dataset.Keyword{1, 10}},
		{"k2/absent", []dataset.Keyword{1}, nil, []dataset.Keyword{1, absent}},
		{"k3/one-small", []dataset.Keyword{1, 2}, []dataset.Keyword{3}, []dataset.Keyword{2, 3, 1}},
		{"k3/some-small", []dataset.Keyword{1}, []dataset.Keyword{2, 3}, []dataset.Keyword{1, 2, 3}},
		{"k3/all-small", nil, []dataset.Keyword{1, 2, 3}, []dataset.Keyword{3, 1, 2}},
		{"k3/all-small/boundaries", nil, []dataset.Keyword{7, 8, 1}, []dataset.Keyword{7, 8, 1}},
		{"k3/absent-among-small", nil, []dataset.Keyword{1, 2}, []dataset.Keyword{1, absent, 2}},
		{"k4/one-small", []dataset.Keyword{1, 2, 3}, []dataset.Keyword{5}, []dataset.Keyword{1, 2, 3, 5}},
		{"k4/some-small", []dataset.Keyword{1, 3}, []dataset.Keyword{2, 6}, []dataset.Keyword{1, 2, 3, 6}},
		{"k4/all-small", nil, []dataset.Keyword{1, 2, 3, 9}, []dataset.Keyword{9, 3, 2, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := len(tc.ws)
			f := stopNodeFramework(ds, k, tc.large, tc.small, nil)
			shortest, allDense, hasAbsent := ds.Len(), true, false
			for _, w := range tc.ws {
				if slices.Contains(tc.small, w) {
					shortest = min(shortest, counts[w])
					allDense = allDense && denseList(counts[w], ds.Len())
				} else if !slices.Contains(tc.large, w) {
					hasAbsent = true
				}
			}
			// What an all-bitmap node is charged: every word of the interval,
			// then every rank the small lists share.
			denseUnits := int64(bitmapWords(ds.Len()) + len(ds.Filter(geom.UniverseRect(2), tc.small)))
			// A crossing node with a sparse drive list of clipMinDrive ranks or
			// more is clipped; all-bitmap, absent-keyword and covered nodes
			// never are.
			clipped := !hasAbsent && !allDense && int64(shortest) >= clipMinDrive
			universe := geom.UniverseRect(2)
			regions := []*geom.Rect{universe}
			for i := 0; i < 8; i++ {
				regions = append(regions, workload.RandRect(rng, 2, 0.05+0.45*rng.Float64()))
			}
			for _, q := range regions {
				got, st, err := f.CollectInto(q, tc.ws, QueryOpts{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				equalIDs(t, got, ds.Filter(q, tc.ws), "stop node vs oracle")
				// The keyword descent stops at the root; only the clip visits
				// cells below it, at most one per drive-list rank.
				if st.PivotChecks != 0 || st.NodesVisited > 1+shortest || ((!clipped || q == universe) && st.NodesVisited != 1) {
					t.Fatalf("the root did not stop the descent (shortest list %d, clipped=%v): %+v", shortest, clipped, st)
				}
				switch {
				case hasAbsent:
					if st.MatScanned != 0 {
						t.Fatalf("absent keyword: %d units charged, want 0", st.MatScanned)
					}
				case allDense:
					if st.MatScanned != denseUnits {
						t.Fatalf("all-bitmap node: %d units charged, want words + common ranks = %d", st.MatScanned, denseUnits)
					}
				case st.MatScanned > int64(shortest):
					t.Fatalf("%d entries scanned, more than the shortest small list holds (%d)", st.MatScanned, shortest)
				case len(tc.small) == 1 && q == universe && st.MatScanned != int64(shortest):
					t.Fatalf("single small list, universe: %d entries scanned, want the whole list (%d)", st.MatScanned, shortest)
				case clipped && q != universe && st.MatScanned == int64(shortest):
					t.Fatalf("clipped by %v: the whole drive list (%d) was scanned", q, shortest)
				}
				if st.Ops != st.MatScanned+1 {
					t.Fatalf("ops %d != node visit + %d stop-node units", st.Ops, st.MatScanned)
				}
			}
		})
	}
}

// The kernel over every mix of representations: m = 1..4 small lists, each
// stored sparse or dense by the test's choice (not the builder's rule), with
// and without a keyword still large, over intervals that end mid-word, on a
// word boundary and inside the first word — against the oracle, unrestricted
// and under stops that land inside a word.
func TestIntersectSmallRepresentations(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const largeW, nobody = dataset.Keyword(9), dataset.Keyword(5)
	universe := geom.Region(geom.UniverseRect(2))
	for _, n := range []int{1, 63, 64, 65, 130, 1000} {
		ds := countedDataset(rng, n, map[dataset.Keyword]int{
			1: n, 2: (n + 1) / 2, 3: (n + 2) / 3, 4: max(1, n/10), largeW: (n + 1) / 2,
		})
		for m := 1; m <= 4; m++ {
			for _, withLarge := range []bool{false, true} {
				small := []dataset.Keyword{4, 2, 3, 1}[:m]
				ws, large := slices.Clone(small), []dataset.Keyword(nil)
				if withLarge {
					ws, large = append(ws, largeW), []dataset.Keyword{largeW}
				}
				if len(ws) < 2 {
					continue
				}
				for mask := 0; mask < 1<<m; mask++ {
					label := fmt.Sprintf("n=%d/m=%d/large=%v/dense=%04b", n, m, withLarge, mask)
					dense := func(w dataset.Keyword, _ int) bool { return mask>>slices.Index(small, w)&1 == 1 }
					f := stopNodeFramework(ds, len(ws), large, small, dense)
					full, _, err := f.CollectInto(universe, ws, QueryOpts{}, nil)
					if err != nil {
						t.Fatal(err)
					}
					equalIDs(t, full, ds.Filter(geom.UniverseRect(2), ws), label)
					q := workload.RandRect(rng, 2, 0.3+0.6*rng.Float64())
					inQ, _, err := f.CollectInto(q, ws, QueryOpts{}, nil)
					if err != nil {
						t.Fatal(err)
					}
					equalIDs(t, inQ, ds.Filter(q, ws), label)

					restricted := []QueryOpts{
						{Limit: 1},
						{Limit: 1 + rng.Intn(len(full)+1)},
						{Limit: 1 + rng.Intn(max(1, len(full)))},
						{Policy: ExecPolicy{Deadline: time.Now().Add(-time.Second)}},
					}
					for i, opts := range restricted {
						part, st, err := f.CollectInto(universe, ws, opts, nil)
						if len(part) > len(full) || !slices.Equal(part, full[:len(part)]) {
							t.Fatalf("%s restriction %d: %v is not a prefix of %v", label, i, part, full)
						}
						if len(part) < len(full) && !st.Truncated {
							t.Fatalf("%s restriction %d: short answer without a stop flag: %+v", label, i, st)
						}
						if i == 3 && !errors.Is(err, ErrDeadline) {
							t.Fatalf("%s: expired deadline returned %v", label, err)
						}
					}
					// Limit 1 over bitmaps alone, nothing left to probe: the
					// scan stops at the first set bit of the AND, inside its
					// word — the words up to it and that one candidate are all
					// that is charged.
					if mask == 1<<m-1 && !withLarge && len(full) > 1 {
						_, st, _ := f.CollectInto(universe, ws, QueryOpts{Limit: 1}, nil)
						first := slices.Index(f.ids, full[0])
						if want := int64(first/64 + 1 + 1); st.MatScanned != want || !st.Truncated {
							t.Fatalf("%s: limit 1 charged %d units (truncated=%v), want %d", label, st.MatScanned, st.Truncated, want)
						}
					}
				}
				// A list nobody is on ends the node before anything is charged,
				// however it is stored.
				for _, asBitmap := range []bool{false, true} {
					dense := func(dataset.Keyword, int) bool { return asBitmap }
					withEmpty := append(slices.Clone(small), nobody)
					wsE := append(slices.Clone(ws), nobody)
					f := stopNodeFramework(ds, len(wsE), large, withEmpty, dense)
					got, st, err := f.CollectInto(universe, wsE, QueryOpts{}, nil)
					if err != nil || len(got) != 0 || st.MatScanned != 0 {
						t.Fatalf("n=%d m=%d empty list (bitmap=%v): ids %v, stats %+v, err %v", n, m, asBitmap, got, st, err)
					}
				}
			}
		}
	}
}

// A 3-id list against a 10^5-id list, both small at the same node: the drive
// list is the short one — the long one is a bitmap it probes — so three
// candidates are examined in all.
func TestStopNodeIntersectAdversarialSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ds := countedDataset(rng, 120_000, map[dataset.Keyword]int{1: 100_000, 2: 3})
	ws := []dataset.Keyword{1, 2}
	for _, dense := range []func(dataset.Keyword, int) bool{nil, func(dataset.Keyword, int) bool { return false }} {
		got, st, err := stopNodeFramework(ds, 2, nil, ws, dense).CollectInto(geom.UniverseRect(2), ws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		equalIDs(t, got, ds.Filter(geom.UniverseRect(2), ws), "skew vs oracle")
		if st.MatScanned > 3 {
			t.Fatalf("%d candidates examined against a 3-id drive list", st.MatScanned)
		}
	}
}

// skewedVocabDataset mixes keywords that stay large deep into the tree with
// ones small at the root, so built indexes stop at nodes with one, some and
// all query keywords small.
func skewedVocabDataset(seed int64, n int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	counts := map[dataset.Keyword]int{}
	for w := dataset.Keyword(1); w <= 4; w++ {
		counts[w] = n / 2 // large almost everywhere
	}
	for w := dataset.Keyword(5); w <= 8; w++ {
		counts[w] = n / 12 // small a few levels down
	}
	for w := dataset.Keyword(9); w <= 12; w++ {
		counts[w] = n / 60 // small at or near the root
	}
	return countedDataset(rng, n, counts)
}

// smallCounts replays the descent of a query over a framework and tallies,
// per stop node, how many of the k keywords were small there.
func smallCounts(f *Framework, q geom.Region, ws []dataset.Keyword, tally map[int]int) {
	var rec func(u int32)
	rec = func(u int32) {
		if f.childCount[u] == 0 {
			return
		}
		m := 0
		for _, w := range ws {
			if _, ok := f.largeLookup(u, w); !ok {
				m++
			}
		}
		if m > 0 {
			tally[m]++
			return
		}
		for c, end := f.childFirst[u], f.childFirst[u]+f.childCount[u]; c < end; c++ {
			if f.relate(c, q) != geom.Disjoint {
				rec(c)
			}
		}
	}
	rec(0)
}

// The differential property over built indexes: for k in {2,3,4}, the index
// reports exactly the oracle's objects, and every Limit, NodeBudget
// and deadline stop returns a prefix of the unrestricted answer.
func TestStopNodeIntersectDifferential(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			ds := skewedVocabDataset(int64(50+k), 6000)
			ix, err := BuildORPKW(ds, k, WithoutObs())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(60 + k)))
			tally := map[int]int{}
			for trial := 0; trial < 120; trial++ {
				q := workload.RandRect(rng, 2, 0.1+0.9*rng.Float64())
				ws := randWs(rng, k, 12)
				if trial%10 == 0 {
					ws[rng.Intn(k)] = 900 // a keyword no document holds
				}
				full, fullSt, err := ix.CollectInto(q, ws, QueryOpts{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				equalIDs(t, full, ds.Filter(q, ws), "built index vs oracle")
				smallCounts(ix.fw, q, ws, tally)

				restricted := []QueryOpts{
					{Limit: 1 + rng.Intn(len(full)+1)},
					{Limit: 1 + rng.Intn(max(1, len(full)))},
					{Policy: ExecPolicy{NodeBudget: 1 + rng.Int63n(int64(fullSt.NodesVisited)+1)}},
					{Policy: ExecPolicy{Deadline: time.Now().Add(-time.Second)}},
				}
				for i, opts := range restricted {
					part, st, err := ix.CollectInto(q, ws, opts, nil)
					if len(part) > len(full) || !slices.Equal(part, full[:len(part)]) {
						t.Fatalf("restriction %d: %v is not a prefix of %v", i, part, full)
					}
					if len(part) < len(full) && !st.Truncated {
						t.Fatalf("restriction %d: short answer without a stop flag: %+v", i, st)
					}
					if i == 3 && !errors.Is(err, ErrDeadline) {
						t.Fatalf("expired deadline returned %v", err)
					}
				}
			}
			for m := 1; m <= k; m++ {
				if (m == 1 || m == k) && tally[m] == 0 {
					t.Errorf("no stop node with %d of %d keywords small was exercised: %v", m, k, tally)
				}
			}
			if k > 2 && tally[2] == 0 {
				t.Errorf("no stop node with some keywords small was exercised: %v", tally)
			}
		})
	}
}

// withoutClip runs fn with the stop-node clip switched off: every stop node
// then scans its whole interval, the reference the clipped scan must match.
func withoutClip(fn func()) {
	defer func(v int64) { clipMinDrive = v }(clipMinDrive)
	clipMinDrive = math.MaxInt64
	fn()
}

// rectHalfspaces is r as the four halfspaces an LC-KW query takes.
func rectHalfspaces(r *geom.Rect) []geom.Halfspace {
	return []geom.Halfspace{
		{Coef: []float64{-1, 0}, Bound: -r.Lo[0]}, {Coef: []float64{1, 0}, Bound: r.Hi[0]},
		{Coef: []float64{0, -1}, Bound: -r.Lo[1]}, {Coef: []float64{0, 1}, Bound: r.Hi[1]},
	}
}

// clipExhausted reports whether the clip of f's root, as a stop node of ws
// crossing q, relates every cell it may — the drive list's length — before
// its descent ends. False when the root is no such stop node.
func clipExhausted(f *Framework, q geom.Region, ws []dataset.Keyword) bool {
	if f.childCount[0] == 0 || f.relate(0, q) != geom.Crossing {
		return false
	}
	shortest := int64(-1)
	for _, w := range ws {
		if _, large := f.largeLookup(0, w); large {
			continue
		}
		mi := f.matLookup(0, w)
		if mi < 0 {
			return false
		}
		if l := f.matLists[mi]; l.Rep == ListRanks && (shortest < 0 || int64(l.N) < shortest) {
			shortest = int64(l.N)
		}
	}
	if shortest < clipMinDrive {
		return false
	}
	qc := &qctx{f: f, q: q, clipLeft: shortest}
	qc.clip(0, int64(f.rankSpan[0]), shortest)
	return qc.clipLeft == 0
}

// The clipped stop node against the whole-interval scan it replaces, for every
// family whose stop nodes it reaches — ORP-KW, RR-KW (corner space, through
// the dimension-reduction tree's secondaries) and SP-KW, over Willard's
// fanout-4 cells and over the fanout-16 grid of the E6b ablation — on a
// skewed and a Zipf corpus, over rectangles of side 0.005 to 0.5 and thin
// slabs: each answer is the oracle's set, in the unclipped scan's order, at
// no more stop-node units; and every Limit, NodeBudget and deadline
// stop returns a prefix of it. Under binary and fanout-4 splits the descent
// budget does not bind (a cell worth splitting holds 4 drive ranks, so there
// are too few of them); a grid root with a drive list of 4 to 15 ranks
// relates that many of its 16 cells and keeps the rest whole, which at least
// one slab must do.
func TestClippedStopNodeDifferential(t *testing.T) {
	corpora := []struct {
		name  string
		ds    *dataset.Dataset
		words func(*rand.Rand) []dataset.Keyword
	}{
		{"skewed", skewedVocabDataset(97, 6000), func(rng *rand.Rand) []dataset.Keyword { return randWs(rng, 2, 12) }},
		{"zipf", workload.Gen(workload.Config{Seed: 98, Objects: 6000, Dim: 2, Vocab: 400, DocLen: 6}),
			func(rng *rand.Rand) []dataset.Keyword { return workload.RandKeywords(rng, 400, 2) }},
	}
	exhausted := 0
	for _, corpus := range corpora {
		ds := corpus.ds
		rng := rand.New(rand.NewSource(99))
		rects := make([]RectObject, ds.Len())
		for i := range rects {
			p, e := ds.Point(int32(i)), 0.01*rng.Float64()
			rects[i] = RectObject{Rect: geom.NewRect([]float64{p[0] - e, p[1] - e}, []float64{p[0] + e, p[1] + e}), Doc: ds.Doc(int32(i))}
		}
		bo := WithoutObs()
		orp, err := BuildORPKW(ds, 2, bo)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := BuildRRKW(rects, 2, bo)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := BuildSPKW(ds, SPKWConfig{K: 2}, bo)
		if err != nil {
			t.Fatal(err)
		}
		grid, err := BuildSPKW(ds, SPKWConfig{K: 2, Splitter: &spart.Grid2D{G: 4}}, bo)
		if err != nil {
			t.Fatal(err)
		}
		type collector func(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts) ([]int32, QueryStats, error)
		fresh := func(into func(*geom.Rect, []dataset.Keyword, QueryOpts, []int32) ([]int32, QueryStats, error)) collector {
			return func(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts) ([]int32, QueryStats, error) {
				return into(q, ws, opts, nil)
			}
		}
		byConstraints := func(ix *SPKW) collector {
			return func(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts) ([]int32, QueryStats, error) {
				return ix.CollectInto(rectHalfspaces(q), ws, opts, nil)
			}
		}
		filter := func(q *geom.Rect, ws []dataset.Keyword) []int32 { return ds.Filter(q, ws) }
		families := []struct {
			name    string
			collect collector
			oracle  func(q *geom.Rect, ws []dataset.Keyword) []int32
		}{
			{"ORPKW", fresh(orp.CollectInto), filter},
			{"RRKW", fresh(rr.CollectInto), func(q *geom.Rect, ws []dataset.Keyword) []int32 {
				return rr.Dataset().Filter(rr.cornerQuery(q), ws)
			}},
			{"SPKW", byConstraints(sp), filter},
			{"SPKW-grid", byConstraints(grid), filter},
		}
		for _, fam := range families {
			t.Run(corpus.name+"/"+fam.name, func(t *testing.T) {
				answered, pruned := 0, 0
				for trial := 0; trial < 150; trial++ {
					// Sides log-uniform over [0.005, 0.5]; every fifth query a
					// slab 0.002 wide across the unit square.
					q := workload.RandRect(rng, 2, 0.005*math.Pow(100, rng.Float64()))
					if trial%5 == 0 {
						q.Lo[1], q.Hi[1] = 0, 1
						q.Hi[0] = q.Lo[0] + 0.002
					}
					ws := corpus.words(rng)
					full, fullSt, err := fam.collect(q, ws, QueryOpts{})
					if err != nil {
						t.Fatal(err)
					}
					equalIDs(t, full, fam.oracle(q, ws), "clipped stop node vs oracle")
					var whole []int32
					var wholeSt QueryStats
					withoutClip(func() { whole, wholeSt, err = fam.collect(q, ws, QueryOpts{}) })
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(full, whole) || fullSt.MatScanned > wholeSt.MatScanned {
						t.Fatalf("%v %v: clipped %v (%d units), unclipped %v (%d units)", q, ws, full, fullSt.MatScanned, whole, wholeSt.MatScanned)
					}
					if fullSt.MatScanned < wholeSt.MatScanned {
						pruned++
					}
					if trial%5 == 0 && fam.name == "SPKW-grid" && clipExhausted(grid.fw, geom.NewPolyhedron(rectHalfspaces(q)...), ws) {
						exhausted++
					}
					answered += len(full)
					restricted := []QueryOpts{
						{Limit: 1 + rng.Intn(len(full)+1)},
						{Limit: 1 + rng.Intn(max(1, len(full)))},
						{Policy: ExecPolicy{NodeBudget: 1 + rng.Int63n(int64(fullSt.NodesVisited)+1)}},
						{Policy: ExecPolicy{Deadline: time.Now().Add(-time.Second)}},
					}
					for i, opts := range restricted {
						part, st, err := fam.collect(q, ws, opts)
						if len(part) > len(full) || !slices.Equal(part, full[:len(part)]) {
							t.Fatalf("restriction %d: %v is not a prefix of %v", i, part, full)
						}
						if len(part) < len(full) && !st.Truncated {
							t.Fatalf("restriction %d: short answer without a stop flag: %+v", i, st)
						}
						if i == 3 && !errors.Is(err, ErrDeadline) {
							t.Fatalf("expired deadline returned %v", err)
						}
					}
				}
				if answered == 0 || pruned == 0 {
					t.Fatalf("%d ids answered, %d queries pruned by the clip: nothing was compared", answered, pruned)
				}
			})
		}
	}
	if exhausted == 0 {
		t.Error("no slab spent the clip's descent budget")
	}
}

// frameworksOf returns every Framework an index is made of.
func frameworksOf(t *testing.T, ix any) []*Framework {
	t.Helper()
	var out []*Framework
	var walk func(tr *drTree)
	walk = func(tr *drTree) {
		for i := range tr.nodes {
			if n := &tr.nodes[i]; n.secKD != nil {
				out = append(out, n.secKD)
			} else if n.secDR != nil {
				walk(n.secDR)
			}
		}
	}
	switch ix := ix.(type) {
	case *ORPKW:
		out = append(out, ix.fw)
	case *SPKW:
		out = append(out, ix.fw)
	case *ORPKWHigh:
		walk(ix.root)
	case *RRKW:
		if ix.low != nil {
			out = append(out, ix.low.fw)
		} else {
			walk(ix.high.root)
		}
	default:
		t.Fatalf("frameworksOf: unhandled index %T", ix)
	}
	return out
}

// rankStructure checks what leaf-order numbering promises of a built
// framework: the rank column names each object once beside a row of its
// own, the root's
// interval is all of it, every node's children tile its interval after its
// pivots, and every materialized list is stored by the density rule — strictly
// ascending ranks of the node's interval, or a bitmap of exactly its span with
// no bit past it — and holds exactly the node's objects that carry the
// keyword. It returns the number of lists of each representation.
func rankStructure(t *testing.T, label string, f *Framework) (sparse, dense int) {
	t.Helper()
	seen := map[int32]bool{}
	for _, id := range f.ids {
		if id < 0 || seen[id] {
			t.Fatalf("%s: rank column repeats or invents id %d", label, id)
		}
		seen[id] = true
	}
	if f.rows.Len() != len(f.ids) {
		t.Fatalf("%s: %d rows for %d ranks", label, f.rows.Len(), len(f.ids))
	}
	if f.rankLo[0] != 0 || int(f.rankSpan[0]) != len(f.ids) {
		t.Fatalf("%s: root interval [%d, +%d) over %d objects", label, f.rankLo[0], f.rankSpan[0], len(f.ids))
	}
	for u := range f.nu {
		lo, hi := f.rankLo[u], f.rankLo[u]+f.rankSpan[u]
		next := lo + f.pivotCount[u]
		for c := f.childFirst[u]; c < f.childFirst[u]+f.childCount[u]; c++ {
			if f.rankLo[c] != next {
				t.Fatalf("%s: node %d child %d starts at rank %d, want %d", label, u, c, f.rankLo[c], next)
			}
			next += f.rankSpan[c]
		}
		if next != hi {
			t.Fatalf("%s: node %d: pivots and children cover [%d, %d) of [%d, %d)", label, u, lo, next, lo, hi)
		}
		for i := f.matStart[u]; i < f.matStart[u+1]; i++ {
			w, ranks, isBitmap := f.matKeys[i], ranksOf(f, u, i), f.matLists[i].Rep == ListBitmap
			if isBitmap != denseList(len(ranks), int(hi-lo)) {
				t.Fatalf("%s: list of %d ranks over a span of %d stored as bitmap=%v", label, len(ranks), hi-lo, isBitmap)
			}
			if isBitmap {
				dense++
				words := f.matBits[f.matLists[i].Start:][:bitmapWords(int(hi-lo))]
				if tail := int(hi-lo) & 63; tail != 0 && words[len(words)-1]>>tail != 0 {
					t.Fatalf("%s: node %d bitmap has bits past its span", label, u)
				}
			} else {
				sparse++
			}
			want := 0
			for r := lo; r < hi; r++ {
				if f.rows.Has(r, w) {
					want++
				}
			}
			if len(ranks) != want || len(ranks) != int(f.matLists[i].N) {
				t.Fatalf("%s: list of keyword %d holds %d ranks and claims %d, the interval %d carriers", label, w, len(ranks), f.matLists[i].N, want)
			}
			for j, r := range ranks {
				if r < lo || r >= hi || (j > 0 && r <= ranks[j-1]) || !f.rows.Has(r, w) {
					t.Fatalf("%s: list of keyword %d over [%d, %d) is not ascending carriers: %v", label, w, lo, hi, ranks)
				}
			}
		}
	}
	return sparse, dense
}

// Leaf-order numbering has to hold for every problem that builds on
// BuildFramework — the dimension-reduction tree, for one, hands its
// secondaries x-sorted subsets of the objects.
func TestMaterializedListsAscending(t *testing.T) {
	ds2 := workload.Gen(workload.Config{Seed: 71, Objects: 1500, Dim: 2, Vocab: 40, DocLen: 4})
	ds3 := workload.Gen(workload.Config{Seed: 72, Objects: 1500, Dim: 3, Vocab: 40, DocLen: 4})
	rng := rand.New(rand.NewSource(73))
	rects := make([]RectObject, 600)
	for i := range rects {
		lo, hi := make([]float64, 2), make([]float64, 2)
		for j := range lo {
			lo[j] = rng.Float64()
			hi[j] = lo[j] + 0.2*rng.Float64()
		}
		rects[i] = RectObject{Rect: &geom.Rect{Lo: lo, Hi: hi}, Doc: []dataset.Keyword{dataset.Keyword(rng.Intn(12)), dataset.Keyword(rng.Intn(12))}}
	}
	builds := map[string]func() (any, error){
		"ORPKW":     func() (any, error) { return BuildORPKW(ds2, 2) },
		"ORPKWHigh": func() (any, error) { return BuildORPKWHigh(ds3, 2) },
		"RRKW":      func() (any, error) { return BuildRRKW(rects, 2) },
		"LCKW":      func() (any, error) { return BuildSPKW(ds2, SPKWConfig{K: 2}) },
		"SPKW":      func() (any, error) { return BuildSPKW(ds3, SPKWConfig{K: 2}) },
	}
	for name, build := range builds {
		ix, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sparse, dense := 0, 0
		for _, f := range frameworksOf(t, ix) {
			s, d := rankStructure(t, name, f)
			sparse, dense = sparse+s, dense+d
		}
		if sparse == 0 || dense == 0 {
			t.Fatalf("%s: %d sparse and %d bitmap lists: both representations must be exercised", name, sparse, dense)
		}
	}
}

// Flat images are untrusted, and the stop-node intersection gallops and
// leapfrogs on a sparse list being strictly ascending: open reads every list
// and refuses any disorder as codec.ErrCorrupt.
func TestFlatImageListDisorder(t *testing.T) {
	ds := skewedVocabDataset(81, 20_000)
	ix, err := BuildORPKW(ds, 3, WithoutObs())
	if err != nil {
		t.Fatal(err)
	}
	target := slices.IndexFunc(ix.fw.matLists, func(l FlatList) bool { return l.Rep == ListRanks && l.N >= 3 })
	if target < 0 {
		t.Fatal("no sparse list of three ranks to corrupt")
	}
	for _, tc := range []struct {
		name    string
		corrupt func(ranks []int32)
	}{
		{"descending pair", func(r []int32) { r[1], r[2] = r[2], r[1] }},
		{"duplicate rank", func(r []int32) { r[1] = r[0] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := *ix.fw
			a.matRanks = slices.Clone(a.matRanks)
			l := a.matLists[target]
			tc.corrupt(a.matRanks[l.Start : l.Start+l.N])
			if err := a.checkImage(); !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("disordered list opened with err=%v, want codec.ErrCorrupt", err)
			}
		})
	}
}

// The rank columns of a flat image are untrusted too: each way they can break
// what the query path assumes — ranks that do not translate to distinct
// objects, pivot counts from which no intervals nest, a list reaching outside
// its node or its arena, a bitmap of the wrong shape — is refused at open.
func TestFlatImageRankValidation(t *testing.T) {
	ds := skewedVocabDataset(83, 20_000)
	ix, err := BuildORPKW(ds, 3, WithoutObs())
	if err != nil {
		t.Fatal(err)
	}
	if clean := *ix.fw; clean.checkImage() != nil {
		t.Fatalf("clean image refused: %v", clean.checkImage())
	}
	fl := &ix.fw.flatLayout
	// An internal node with at least two children, a sparse list and a bitmap
	// list (of a span that is not a whole number of words) to aim at.
	inner, sparse, bitmap := -1, -1, -1
	for u := range fl.nu {
		if inner < 0 && u > 0 && fl.childCount[u] >= 2 {
			inner = u
		}
		for i := fl.matStart[u]; i < fl.matStart[u+1]; i++ {
			switch l := fl.matLists[i]; {
			case l.Rep == ListBitmap && bitmap < 0 && fl.rankSpan[u]&63 != 0:
				bitmap = int(i)
			case l.Rep == ListRanks && l.N > 0 && sparse < 0:
				sparse = int(i)
			}
		}
	}
	if inner < 0 || sparse < 0 || bitmap < 0 {
		t.Fatalf("fixture lacks a target: inner=%d sparse=%d bitmap=%d", inner, sparse, bitmap)
	}
	nodeOf := func(list int) int {
		for u := range fl.nu {
			if int(fl.matStart[u]) <= list && list < int(fl.matStart[u+1]) {
				return u
			}
		}
		t.Fatalf("list %d belongs to no node", list)
		return -1
	}
	bmNode := nodeOf(bitmap)
	bmWords := bitmapWords(int(fl.rankSpan[bmNode]))

	cases := []struct {
		name    string
		corrupt func(a *Framework)
	}{
		{"rank column repeats an id", func(a *Framework) {
			a.ids = slices.Clone(a.ids)
			a.ids[7] = a.ids[8]
		}},
		{"rank column names an id out of range", func(a *Framework) {
			a.ids = slices.Clone(a.ids)
			a.ids[7] = int32(ds.Len())
		}},
		{"rank column too short", func(a *Framework) { a.ids = a.ids[:len(a.ids)-1] }},
		{"child count past the node count", func(a *Framework) {
			a.childCount = slices.Clone(a.childCount)
			a.childCount[inner] += int32(len(a.nu))
		}},
		// Three nodes whose child counts cover them and whose spans come to
		// the objects, but node 1 is its own first child and nothing reaches
		// it: node 2's interval would start past the last rank.
		{"a node that is its own child", func(a *Framework) {
			n := int32(len(a.ids))
			a.nu, a.childCount, a.pivotCount = make([]int64, 3), []int32{0, 2, 0}, []int32{n, n / 2, n / 2}
			a.largeStart, a.largeKeys, a.largeIdx = make([]int32, 4), nil, nil
			a.matStart, a.matKeys, a.matLists, a.matRanks, a.matBits = make([]int32, 4), nil, nil, nil, nil
			a.tensorArena = bits.Arena{}
		}},
		{"tensor words short of the derived total", func(a *Framework) {
			raw := a.tensorArena.Raw()
			a.tensorArena = bits.ArenaFromWords(raw[:len(raw)-1])
		}},
		{"pivot count negative", func(a *Framework) {
			a.pivotCount = slices.Clone(a.pivotCount)
			a.pivotCount[inner] = -1
		}},
		{"pivot counts do not add up to the objects", func(a *Framework) {
			a.pivotCount = slices.Clone(a.pivotCount)
			a.pivotCount[len(a.pivotCount)-1]++
		}},
		// The stop node would probe its bitmaps at bit rank-lo: out of range.
		{"sparse list starts below its node's interval", func(a *Framework) {
			a.matRanks = slices.Clone(a.matRanks)
			a.matRanks[a.matLists[sparse].Start] = a.rankLo[nodeOf(sparse)] - 1
		}},
		{"sparse list ends past its node's interval", func(a *Framework) {
			a.matRanks = slices.Clone(a.matRanks)
			l, u := a.matLists[sparse], nodeOf(sparse)
			a.matRanks[l.Start+l.N-1] = a.rankLo[u] + fl.rankSpan[u]
		}},
		{"sparse list runs off the arena", func(a *Framework) {
			a.matLists = slices.Clone(a.matLists)
			a.matLists[sparse].N++
		}},
		{"sparse list length negative", func(a *Framework) {
			a.matLists = slices.Clone(a.matLists)
			a.matLists[sparse].N = -1
		}},
		{"bitmap runs off the arena", func(a *Framework) {
			a.matBits = a.matBits[:len(a.matBits)-1]
		}},
		{"bitmap has a bit past its interval", func(a *Framework) {
			a.matBits = slices.Clone(a.matBits)
			a.matBits[int(a.matLists[bitmap].Start)+bmWords-1] |= 1 << 63
		}},
		{"bitmap popcount disagrees with its handle", func(a *Framework) {
			a.matLists = slices.Clone(a.matLists)
			a.matLists[bitmap].N++
		}},
		{"list handle with an unknown representation tag", func(a *Framework) {
			a.matLists = slices.Clone(a.matLists)
			a.matLists[bitmap].Rep = 2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := *ix.fw
			a.matLists = slices.Clone(a.matLists) // checkImage derives their starts in place
			tc.corrupt(&a)
			if err := a.checkImage(); err == nil {
				t.Fatalf("opened as a framework of %d nodes", a.NumNodes())
			}
		})
	}
}

// An all-bitmap stop node checks for a stop once per bmBlock words and after
// every candidate. A deadline that passes, or a Done that closes, while the
// node is being scanned ends the query within polPollEvery further checks,
// with its typed error and a prefix of the full answer; Limit 1 ends it at the
// first common rank, charging the words up to it and that one candidate.
func TestBitmapStopNodePolling(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ds := countedDataset(rng, 20_000, map[dataset.Keyword]int{1: 9000, 2: 7000})
	ws := []dataset.Keyword{1, 2}
	f := stopNodeFramework(ds, 2, nil, ws, nil)
	q := geom.UniverseRect(2)
	full, fullSt, err := f.CollectInto(q, ws, QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fullSt.NodesVisited != 1 || fullSt.MatScanned != int64(bitmapWords(ds.Len())+len(full)) || len(full) < 4*polPollEvery {
		t.Fatalf("the root is no all-bitmap stop node of many common ranks: %d ids, %+v", len(full), fullSt)
	}

	for _, tc := range []struct {
		name string
		pol  func() (ExecPolicy, func())
		want error
	}{
		{"deadline", func() (ExecPolicy, func()) {
			deadline := time.Now().Add(20 * time.Millisecond)
			return ExecPolicy{Deadline: deadline}, func() { time.Sleep(time.Until(deadline) + time.Millisecond) }
		}, ErrDeadline},
		{"done", func() (ExecPolicy, func()) {
			done := make(chan struct{})
			return ExecPolicy{Done: done}, func() { close(done) }
		}, ErrCanceled},
	} {
		pol, expire := tc.pol()
		var got []int32
		st, err := f.Query(q, ws, QueryOpts{Policy: pol}, func(id int32) {
			if len(got) == 0 {
				expire() // the first report comes from inside the stop node
			}
			got = append(got, id)
		})
		if !errors.Is(err, tc.want) || !st.Truncated {
			t.Fatalf("%s: err %v, truncated %v; want %v", tc.name, err, st.Truncated, tc.want)
		}
		if len(got) > 1+polPollEvery || !slices.Equal(got, full[:len(got)]) {
			t.Fatalf("%s: %d ids after the stop, not a prefix of the answer cut within %d checks", tc.name, len(got), polPollEvery)
		}
	}

	// Limit 1: the first set bit of the AND lies in word first.
	first := int64(-1)
	for r := 0; first < 0; r++ {
		if ds.Has(f.ids[r], 1) && ds.Has(f.ids[r], 2) {
			first = int64(r) >> 6
		}
	}
	got, st, err := f.CollectInto(q, ws, QueryOpts{Limit: 1}, nil)
	if err != nil || len(got) != 1 || got[0] != full[0] || !st.Truncated {
		t.Fatalf("Limit 1: %v, %+v, %v", got, st, err)
	}
	if st.NodesVisited != 1 || st.MatScanned != first+2 || st.Ops != first+3 {
		t.Fatalf("Limit 1: %d nodes, %d units, %d ops; want 1 node, %d units (words to the first common rank, then it), %d ops",
			st.NodesVisited, st.MatScanned, st.Ops, first+2, first+3)
	}
}
