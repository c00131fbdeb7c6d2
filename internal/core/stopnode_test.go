package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"kwsc/internal/bitpack"
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

// stopNodeFramework hand-builds a two-node framework over ds whose root is a
// stop node for any query drawn from large ∪ small ∪ {absent keywords}: the
// keywords of large sit in its T_u table, those of small carry their full
// posting list as the materialized list, and the single child is an empty
// leaf no query reaches.
func stopNodeFramework(ds *dataset.Dataset, k int, large, small []dataset.Keyword, flat bool) *Framework {
	n := ds.Len()
	pts := make([]geom.Point, n)
	objs := make([]int32, n)
	for i := range pts {
		pts[i], objs[i] = ds.Point(int32(i)), int32(i)
	}
	split := &spart.KD{Dim: ds.Dim()}
	cell := split.RootCell(pts, objs)
	root := fnode{
		cell:     cell,
		children: []int32{1},
		nu:       ds.N(),
		large:    map[dataset.Keyword]int32{},
		l:        int32(len(large)),
		tensors:  []*bits.Dense{bits.NewDense(int(tensorSize(len(large), k)))},
		mat:      map[dataset.Keyword][]int32{},
	}
	for i, w := range large {
		root.large[w] = int32(i)
	}
	for _, w := range small {
		for id := int32(0); int(id) < n; id++ {
			if ds.Has(id, w) {
				root.mat[w] = append(root.mat[w], id)
			}
		}
	}
	f := &Framework{ds: ds, k: k, split: split, pts: pts, leafSize: 8, nodes: []fnode{root, {cell: cell}}}
	if flat {
		f.Flatten()
	}
	return f
}

// bothLayouts runs one query on a pointer-layout and a flat-layout index,
// asserts the byte-identical contract between them and returns the common
// answer.
func bothLayouts[Q any, C interface {
	Collect(Q, []dataset.Keyword, QueryOpts) ([]int32, QueryStats, error)
}](t *testing.T, label string, ptr, fl C, q Q, ws []dataset.Keyword, opts QueryOpts) ([]int32, QueryStats, error) {
	t.Helper()
	wantIDs, wantSt, wantErr := ptr.Collect(q, ws, opts)
	gotIDs, gotSt, gotErr := fl.Collect(q, ws, opts)
	sameIDsAndStats(t, label, gotIDs, wantIDs, gotSt, wantSt, gotErr, wantErr)
	return wantIDs, wantSt, wantErr
}

func TestStopNodeIntersectHandBuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// Keywords 1..3 are long lists, 4..9 short ones whose lengths sit on the
	// packed-block boundaries, 10 is a three-id list; 900 occurs nowhere.
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
			ptr := stopNodeFramework(ds, k, tc.large, tc.small, false)
			fl := stopNodeFramework(ds, k, tc.large, tc.small, true)
			shortest, hasAbsent := ds.Len(), false
			for _, w := range tc.ws {
				if slices.Contains(tc.small, w) {
					shortest = min(shortest, counts[w])
				} else if !slices.Contains(tc.large, w) {
					hasAbsent = true
				}
			}
			regions := []*geom.Rect{geom.UniverseRect(2)}
			for i := 0; i < 8; i++ {
				regions = append(regions, workload.RandRect(rng, 2, 0.1+0.8*rng.Float64()))
			}
			for _, q := range regions {
				got, st, err := bothLayouts(t, tc.name, ptr, fl, geom.Region(q), tc.ws, QueryOpts{})
				if err != nil {
					t.Fatal(err)
				}
				want := ds.Filter(q, tc.ws)
				if !slices.Equal(got, want) { // one node, so emission order is id order
					t.Fatalf("reported %v, oracle %v", got, want)
				}
				if st.NodesVisited != 1 || st.PivotChecks != 0 {
					t.Fatalf("the root did not stop the descent: %+v", st)
				}
				switch {
				case hasAbsent && st.MatScanned != 0:
					t.Fatalf("absent keyword: %d entries scanned, want 0", st.MatScanned)
				case len(tc.small) == 1 && !hasAbsent && st.MatScanned != int64(shortest):
					t.Fatalf("single small list: %d entries scanned, want the whole list (%d)", st.MatScanned, shortest)
				case st.MatScanned > int64(shortest):
					t.Fatalf("%d entries scanned, more than the shortest small list holds (%d)", st.MatScanned, shortest)
				}
				if st.Ops != st.MatScanned+1 {
					t.Fatalf("ops %d != node visit + %d drive candidates", st.Ops, st.MatScanned)
				}
			}
		})
	}
}

// A 3-id list against a 10^5-id list, both small at the same node: the drive
// list is the short one, so three candidates are examined in all.
func TestStopNodeIntersectAdversarialSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ds := countedDataset(rng, 120_000, map[dataset.Keyword]int{1: 100_000, 2: 3})
	ws := []dataset.Keyword{1, 2}
	ptr := stopNodeFramework(ds, 2, nil, ws, false)
	fl := stopNodeFramework(ds, 2, nil, ws, true)
	got, st, err := bothLayouts(t, "skew", ptr, fl, geom.Region(geom.UniverseRect(2)), ws, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if want := ds.Filter(geom.UniverseRect(2), ws); !slices.Equal(got, want) {
		t.Fatalf("reported %v, oracle %v", got, want)
	}
	if st.MatScanned > 3 {
		t.Fatalf("%d candidates examined against a 3-id drive list", st.MatScanned)
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

// smallCounts replays the descent of a query over a pointer-layout framework
// and tallies, per stop node, how many of the k keywords were small there.
func smallCounts(f *Framework, q geom.Region, ws []dataset.Keyword, tally map[int]int) {
	var rec func(u int32)
	rec = func(u int32) {
		n := &f.nodes[u]
		if len(n.children) == 0 {
			return
		}
		m := 0
		for _, w := range ws {
			if _, ok := n.large[w]; !ok {
				m++
			}
		}
		if m > 0 {
			tally[m]++
			return
		}
		for _, c := range n.children {
			if f.split.Relate(f.nodes[c].cell, q) != geom.Disjoint {
				rec(c)
			}
		}
	}
	rec(0)
}

// The differential property over built indexes: for k in {2,3,4}, both
// layouts report exactly the oracle's objects, with identical stats, and
// every Limit, Budget, NodeBudget and deadline stop returns a prefix of the
// unrestricted answer.
func TestStopNodeIntersectDifferential(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			ds := skewedVocabDataset(int64(50+k), 6000)
			ptrIx, err := BuildORPKW(ds, k, WithoutObs())
			if err != nil {
				t.Fatal(err)
			}
			flIx, err := BuildORPKW(ds, k, WithoutObs(), WithFlatLayout())
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
				full, fullSt, err := bothLayouts(t, "built", ptrIx, flIx, q, ws, QueryOpts{})
				if err != nil {
					t.Fatal(err)
				}
				equalIDs(t, full, ds.Filter(q, ws), "built index vs oracle")
				if rq, ok := ptrIx.rs.ToRankRect(q); ok {
					smallCounts(ptrIx.fw, rq, ws, tally)
				}

				restricted := []QueryOpts{
					{Limit: 1 + rng.Intn(len(full)+1)},
					{Budget: 1 + rng.Int63n(fullSt.Ops+1)},
					{Policy: ExecPolicy{NodeBudget: 1 + rng.Int63n(int64(fullSt.NodesVisited)+1)}},
					{Policy: ExecPolicy{Deadline: time.Now().Add(-time.Second)}},
				}
				for i, opts := range restricted {
					part, st, err := bothLayouts(t, "built", ptrIx, flIx, q, ws, opts)
					if len(part) > len(full) || !slices.Equal(part, full[:len(part)]) {
						t.Fatalf("restriction %d: %v is not a prefix of %v", i, part, full)
					}
					if len(part) < len(full) && !st.Truncated && !st.BudgetHit {
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

// matListsOf decodes every materialized list of f.
func matListsOf(f *Framework) [][]int32 {
	var out [][]int32
	if fl := f.flat; fl != nil {
		for _, l := range fl.matLists {
			out = append(out, fl.matArena.UnpackInto(l, nil))
		}
		return out
	}
	for i := range f.nodes {
		for _, lst := range f.nodes[i].mat {
			out = append(out, lst)
		}
	}
	return out
}

// The leapfrog intersection is only sound over ascending lists. The
// dimension-reduction tree hands its secondaries x-sorted active sets, so the
// order has to be established by BuildFramework, for every problem that
// builds on it and in both layouts.
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
	for _, flat := range []bool{false, true} {
		var opts []BuildOption
		if flat {
			opts = append(opts, WithFlatLayout())
		}
		builds := map[string]func() (any, error){
			"ORPKW":     func() (any, error) { return BuildORPKW(ds2, 2, opts...) },
			"ORPKWHigh": func() (any, error) { return BuildORPKWHigh(ds3, 2, opts...) },
			"RRKW":      func() (any, error) { return BuildRRKW(rects, 2, opts...) },
			"LCKW":      func() (any, error) { return BuildSPKW(ds2, SPKWConfig{K: 2, Build: BuildOpts{Flat: flat}}) },
			"SPKW":      func() (any, error) { return BuildSPKW(ds3, SPKWConfig{K: 2, Build: BuildOpts{Flat: flat}}) },
		}
		for name, build := range builds {
			ix, err := build()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			lists := 0
			for _, f := range frameworksOf(t, ix) {
				if f.IsFlat() != flat {
					t.Fatalf("%s: framework layout flat=%v, want %v", name, f.IsFlat(), flat)
				}
				for _, lst := range matListsOf(f) {
					lists++
					for i := 1; i < len(lst); i++ {
						if lst[i] <= lst[i-1] {
							t.Fatalf("%s flat=%v: materialized list not strictly ascending at %d: %v", name, flat, i, lst)
						}
					}
				}
			}
			if lists == 0 {
				t.Fatalf("%s flat=%v: no materialized list to check", name, flat)
			}
		}
	}
}

// repackArena re-encodes every materialized list of a flat image after edit
// has had its way with the decoded ids.
func repackArena(a *FlatArenas, edit func(list int, ids []int32)) {
	old := bitpack.FromRaw(a.MatWords, a.MatBlocks)
	var fresh bitpack.PackedLists
	lists := make([]bitpack.List, len(a.MatLists))
	for i, l := range a.MatLists {
		ids := old.UnpackInto(l, nil)
		edit(i, ids)
		lists[i] = fresh.Append(ids)
	}
	a.MatLists = lists
	a.MatWords, a.MatBlocks = fresh.Raw()
}

// Flat images are untrusted. Disorder the resident block directory can show
// (a block starting at or before its predecessor's Max) is rejected at open
// as codec.ErrCorrupt; disorder hidden inside a block's payload cannot be
// seen without decoding, and must cost no more than missing answers.
func TestFlatImageListDisorder(t *testing.T) {
	ds := skewedVocabDataset(81, 6000)
	ix, err := BuildORPKW(ds, 3, WithoutObs(), WithFlatLayout())
	if err != nil {
		t.Fatal(err)
	}
	export := func() *FlatArenas {
		a, err := ix.fw.ExportFlat()
		if err != nil {
			t.Fatal(err)
		}
		cp := *a
		return &cp
	}

	t.Run("directory", func(t *testing.T) {
		a := export()
		swapped := false
		repackArena(a, func(_ int, ids []int32) {
			if !swapped && len(ids) >= 2*bitpack.BlockSize {
				// Exchange the first two blocks: each stays ascending inside.
				tmp := slices.Clone(ids[:bitpack.BlockSize])
				copy(ids, ids[bitpack.BlockSize:2*bitpack.BlockSize])
				copy(ids[bitpack.BlockSize:], tmp)
				swapped = true
			}
		})
		if !swapped {
			t.Fatal("no two-block list to corrupt")
		}
		if _, err := NewFrameworkFromFlat(ds, a); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("out-of-order block directory opened with err=%v, want codec.ErrCorrupt", err)
		}
	})

	t.Run("intra-block", func(t *testing.T) {
		a := export()
		rng := rand.New(rand.NewSource(82))
		shuffled := 0
		repackArena(a, func(_ int, ids []int32) {
			for lo := 0; lo < len(ids); lo += bitpack.BlockSize {
				if in := ids[lo+1 : max(lo+1, min(lo+bitpack.BlockSize, len(ids))-1)]; len(in) > 1 {
					rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
					shuffled++
				}
			}
		})
		if shuffled == 0 {
			t.Fatal("no block interior to shuffle")
		}
		bad, err := NewFrameworkFromFlat(ds, a)
		if err != nil {
			t.Fatalf("a directory-consistent image must open: %v", err)
		}
		missed := 0
		for trial := 0; trial < 200; trial++ {
			q, ok := ix.rs.ToRankRect(workload.RandRect(rng, 2, 0.2+0.8*rng.Float64()))
			if !ok {
				continue
			}
			ws := randWs(rng, 3, 12)
			// A cursor that failed to advance would hang here until the test
			// binary's timeout; a panic surfaces as the error.
			got, _, err := bad.Collect(q, ws, QueryOpts{})
			if err != nil {
				t.Fatalf("query over a disordered image failed: %v", err)
			}
			want, _, err := ix.fw.Collect(q, ws, QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(want)
			for _, id := range got {
				if _, found := slices.BinarySearch(want, id); !found {
					t.Fatalf("disordered image reported %d, which is no answer", id)
				}
			}
			missed += len(want) - len(got)
		}
		t.Logf("disordered image missed %d answers over 200 queries", missed)
	})
}
