package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/invidx"
	"kwsc/internal/workload"
)

// Leaf-order numbering changes the order a node reports in and moves every
// list into rank space, for every index that builds on BuildFramework. The
// differential property across those families: each answers exactly the
// inverted-index oracle's set, and under a Limit, a NodeBudget and an expired
// deadline each returns a subset of it, flagged or with the typed error. The
// small vocabulary makes most lists dense somewhere down the tree, so bitmaps,
// sparse lists and their mixes are all on the paths taken.
func TestLeafOrderDifferentialFamilies(t *testing.T) {
	const vocab = 14
	ds2 := workload.Gen(workload.Config{Seed: 91, Objects: 3000, Dim: 2, Vocab: vocab, DocLen: 4})
	ds3 := workload.Gen(workload.Config{Seed: 92, Objects: 2000, Dim: 3, Vocab: vocab, DocLen: 4})
	oracle2, oracle3 := invidx.Build(ds2), invidx.Build(ds3)
	rng := rand.New(rand.NewSource(93))

	rects := make([]RectObject, 1200)
	for i := range rects {
		lo, hi := make([]float64, 2), make([]float64, 2)
		for j := range lo {
			lo[j] = rng.Float64()
			hi[j] = lo[j] + 0.2*rng.Float64()
		}
		rects[i] = RectObject{Rect: &geom.Rect{Lo: lo, Hi: hi}, Doc: ds2.Doc(int32(i))}
	}

	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// collector is one family's query entry point, already bound to a region.
	type collector func(ws []dataset.Keyword, opts QueryOpts) ([]int32, QueryStats, error)
	type family struct {
		name   string
		bind   func(trial int) collector
		oracle func(trial int, ws []dataset.Keyword) []int32
	}
	rect2 := make([]*geom.Rect, 30)
	rect3 := make([]*geom.Rect, 30)
	hs := make([][]geom.Halfspace, 30)
	balls := make([]*geom.Sphere, 30)
	for i := range rect2 {
		rect2[i] = workload.RandRect(rng, 2, 0.2+0.7*rng.Float64())
		rect3[i] = workload.RandRect(rng, 3, 0.4+0.6*rng.Float64())
		hs[i] = []geom.Halfspace{
			{Coef: []float64{1, 0.5}, Bound: 0.3 + rng.Float64()},
			{Coef: []float64{-1, 1}, Bound: rng.Float64()},
		}
		balls[i] = geom.NewSphere(geom.Point{rng.Float64(), rng.Float64()}, 0.15+0.4*rng.Float64())
	}

	bo := WithoutObs()
	orp2, err := BuildORPKW(ds2, 2, bo)
	must(t, err)
	orp3, err := BuildORPKWHigh(ds3, 2, bo)
	must(t, err)
	lc, err := BuildSPKW(ds2, SPKWConfig{K: 2}, bo)
	must(t, err)
	srp, err := BuildSRPKW(ds2, 2, bo)
	must(t, err)
	rr, err := BuildRRKW(rects, 2, bo)
	must(t, err)
	rrOracle := invidx.Build(rr.Dataset())
	fams := []family{
		{"ORPKW d=2",
			func(i int) collector {
				return func(ws []dataset.Keyword, o QueryOpts) ([]int32, QueryStats, error) {
					return orp2.CollectInto(rect2[i], ws, o, nil)
				}
			},
			func(i int, ws []dataset.Keyword) []int32 { return oracle2.KeywordsOnly(rect2[i], ws) }},
		{"ORPKWHigh d=3",
			func(i int) collector {
				return func(ws []dataset.Keyword, o QueryOpts) ([]int32, QueryStats, error) {
					return orp3.CollectInto(rect3[i], ws, o, nil)
				}
			},
			func(i int, ws []dataset.Keyword) []int32 { return oracle3.KeywordsOnly(rect3[i], ws) }},
		{"LCKW",
			func(i int) collector {
				return func(ws []dataset.Keyword, o QueryOpts) ([]int32, QueryStats, error) {
					return lc.CollectInto(hs[i], ws, o, nil)
				}
			},
			func(i int, ws []dataset.Keyword) []int32 {
				return oracle2.KeywordsOnly(geom.NewPolyhedron(hs[i]...), ws)
			}},
		{"SRPKW",
			func(i int) collector {
				return func(ws []dataset.Keyword, o QueryOpts) ([]int32, QueryStats, error) {
					return srp.CollectInto(balls[i], ws, o, nil)
				}
			},
			func(i int, ws []dataset.Keyword) []int32 { return oracle2.KeywordsOnly(balls[i], ws) }},
		{"RRKW",
			func(i int) collector {
				return func(ws []dataset.Keyword, o QueryOpts) ([]int32, QueryStats, error) {
					return rr.CollectInto(rect2[i], ws, o, nil)
				}
			},
			func(i int, ws []dataset.Keyword) []int32 { return rrOracle.KeywordsOnly(rr.cornerQuery(rect2[i]), ws) }},
	}

	for _, fam := range fams {
		t.Run(fam.name, func(t *testing.T) {
			answered := 0
			for i := range rect2 {
				ws := randWs(rng, 2, vocab-1)
				run := fam.bind(i)
				full, fullSt, err := run(ws, QueryOpts{})
				must(t, err)
				want := fam.oracle(i, ws)
				equalIDs(t, full, want, fam.name+" vs invidx oracle")
				answered += len(full)
				inFull := map[int32]bool{}
				for _, id := range full {
					inFull[id] = true
				}
				for _, tc := range []struct {
					opts    QueryOpts
					wantErr error
				}{
					{QueryOpts{Limit: 1 + rng.Intn(len(full)+1)}, nil},
					{QueryOpts{Policy: ExecPolicy{NodeBudget: 1 + rng.Int63n(int64(fullSt.NodesVisited)+1)}}, ErrBudget},
					{QueryOpts{Policy: ExecPolicy{Deadline: time.Now().Add(-time.Second)}}, ErrDeadline},
				} {
					part, st, err := run(ws, tc.opts)
					seen := map[int32]bool{}
					for _, id := range part {
						if !inFull[id] || seen[id] {
							t.Fatalf("%+v: reported %d, which is repeated or no member of the full answer", tc.opts, id)
						}
						seen[id] = true
					}
					if tc.opts.Limit > 0 && len(part) != min(tc.opts.Limit, len(full)) {
						t.Fatalf("limit %d over %d answers returned %d", tc.opts.Limit, len(full), len(part))
					}
					if err != nil && !errors.Is(err, tc.wantErr) {
						t.Fatalf("%+v: err %v, want %v", tc.opts, err, tc.wantErr)
					}
					if errors.Is(tc.wantErr, ErrDeadline) && err == nil {
						t.Fatalf("expired deadline returned no error")
					}
					if len(part) < len(full) && err == nil && !st.Truncated {
						t.Fatalf("%+v: short answer with neither error nor Truncated: %+v", tc.opts, st)
					}
				}
			}
			if answered == 0 {
				t.Fatal("every query came back empty: nothing was compared")
			}
		})
	}

	// The nearest-neighbour searches drive the same frameworks through
	// growing balls under a Limit: the t best distances must be the oracle's.
	t.Run("NN", func(t *testing.T) {
		const side = 1 << 12 // L2NN-KW wants integer coordinates
		grid := workload.Gen(workload.Config{Seed: 94, Objects: 2000, Dim: 2, Vocab: vocab, DocLen: 4, Points: "grid", GridSide: side})
		gridOracle := invidx.Build(grid)
		linf, err := BuildLinfNN(grid, 2, WithoutObs())
		must(t, err)
		l2, err := BuildL2NN(grid, 2, WithoutObs())
		must(t, err)
		for trial := 0; trial < 20; trial++ {
			q := geom.Point{float64(rng.Intn(side)), float64(rng.Intn(side))}
			ws := randWs(rng, 2, vocab-1)
			cands := gridOracle.Intersect(ws)
			const want = 5
			for _, nn := range []struct {
				name  string
				query func(QueryOpts) ([]NNResult, NNStats, error)
				dist  func(p geom.Point) float64
			}{
				{"Linf", func(o QueryOpts) ([]NNResult, NNStats, error) { return linf.Query(q, want, ws, o) },
					func(p geom.Point) float64 { return q.LInf(p) }},
				{"L2", func(o QueryOpts) ([]NNResult, NNStats, error) { return l2.Query(q, want, ws, o) },
					func(p geom.Point) float64 { return q.L2(p) }},
			} {
				dists := make([]float64, len(cands))
				for i, id := range cands {
					dists[i] = nn.dist(grid.Point(id))
				}
				sort.Float64s(dists)
				dists = dists[:min(want, len(dists))]
				res, _, err := nn.query(QueryOpts{})
				must(t, err)
				if len(res) != len(dists) {
					t.Fatalf("%s: %d neighbours, oracle %d", nn.name, len(res), len(dists))
				}
				for i, r := range res {
					if d := nn.dist(grid.Point(r.ID)); d != dists[i] || !grid.HasAll(r.ID, ws) {
						t.Fatalf("%s: neighbour %d is object %d at %v, oracle distance %v", nn.name, i, r.ID, d, dists[i])
					}
				}
				if _, _, err := nn.query(QueryOpts{Policy: ExecPolicy{Deadline: time.Now().Add(-time.Second)}}); len(cands) > 0 && !errors.Is(err, ErrDeadline) {
					t.Fatalf("%s: expired deadline returned %v", nn.name, err)
				}
			}
		}
	})

	// Bentley–Saxe buckets are frameworks over their own small datasets.
	t.Run("DynamicORPKW", func(t *testing.T) {
		d, err := NewDynamicORPKW(2, 2, 32)
		must(t, err)
		objOf := map[int64]int32{}
		for i := 0; i < ds2.Len(); i++ {
			h, err := d.Insert(dataset.Object{Point: ds2.Point(int32(i)), Doc: slices.Clone(ds2.Doc(int32(i)))})
			must(t, err)
			objOf[h] = int32(i)
		}
		if d.NumBuckets() == 0 {
			t.Fatal("no Bentley–Saxe bucket was built")
		}
		for i := range rect2 {
			ws := randWs(rng, 2, vocab-1)
			var full []int32
			_, err := d.Query(rect2[i], ws, QueryOpts{}, func(h int64, _ *dataset.Object) { full = append(full, objOf[h]) })
			must(t, err)
			equalIDs(t, full, oracle2.KeywordsOnly(rect2[i], ws), "dynamic vs invidx oracle")
			for _, tc := range []struct {
				opts    QueryOpts
				wantErr error
			}{
				{QueryOpts{Limit: 1 + rng.Intn(len(full)+1)}, nil},
				{QueryOpts{Policy: ExecPolicy{NodeBudget: 1 + rng.Int63n(8)}}, ErrBudget},
				{QueryOpts{Policy: ExecPolicy{Deadline: time.Now().Add(-time.Second)}}, ErrDeadline},
			} {
				var part []int32
				_, err := d.Query(rect2[i], ws, tc.opts, func(h int64, _ *dataset.Object) { part = append(part, objOf[h]) })
				for _, id := range part {
					if !slices.Contains(full, id) {
						t.Fatalf("%+v: reported object %d, no member of the full answer", tc.opts, id)
					}
				}
				if err != nil && !errors.Is(err, tc.wantErr) || errors.Is(tc.wantErr, ErrDeadline) && err == nil {
					t.Fatalf("%+v: err %v, want %v", tc.opts, err, tc.wantErr)
				}
			}
		}
	})
}

// heapAfter runs build between two GC-settled heap readings and returns what
// it left resident.
func heapAfter[T any](build func() T) (T, int64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	v := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return v, int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
}

// A framework's per-object columns are sized to its own objects, not to the
// dataset: the dimension-reduction index, which builds a secondary framework
// per node of its x-tree, must cost memory in proportion to the objects its
// secondaries hold between them (O(N log log N), Lemma 11) — not secondaries
// x N, which is what one dataset-sized column per framework comes to. Checked
// on the columns themselves and on the heap an index leaves resident, at two
// sizes: bytes per indexed object stay level.
func TestORPKWHighMemoryFollowsItsObjects(t *testing.T) {
	perObject := make([]float64, 0, 2)
	for _, n := range []int{4096, 16384} {
		ds := workload.Gen(workload.Config{Seed: 95, Objects: n, Dim: 3, Vocab: 200, DocLen: 5})
		ix, resident := heapAfter(func() *ORPKWHigh {
			ix, err := BuildORPKWHigh(ds, 2, WithoutObs())
			if err != nil {
				t.Fatal(err)
			}
			return ix
		})
		secondaries := frameworksOf(t, ix)
		held := 0
		for _, f := range secondaries {
			if coords, _, _ := f.rows.Columns(); len(coords) != len(f.ids)*f.pdim {
				t.Fatalf("n=%d: a secondary over %d objects keeps %d coordinates", n, len(f.ids), len(coords))
			}
			held += len(f.ids)
		}
		if held >= len(secondaries)*n/4 {
			t.Fatalf("n=%d: %d secondaries hold %d objects between them: the fixture does not tell sum|objs| from secondaries x N", n, len(secondaries), held)
		}
		perObject = append(perObject, float64(resident)/float64(held))
		t.Logf("n=%d: %d secondaries over %d objects in all, %d bytes resident, %.0f per indexed object",
			n, len(secondaries), held, resident, perObject[len(perObject)-1])
		runtime.KeepAlive(ix)
	}
	if perObject[1] > 1.5*perObject[0] {
		t.Fatalf("resident bytes per indexed object grew from %.0f to %.0f with N: memory follows secondaries x N, not sum|objs|", perObject[0], perObject[1])
	}
}

// The same bound on what a build allocates, not only on what it keeps: build
// scratch — weights, documents, keyword counters — is sized to a secondary's
// own objects, so a dimension-reduction build allocates in proportion to the
// objects its secondaries hold between them.
func TestORPKWHighAllocationFollowsItsObjects(t *testing.T) {
	perObject := make([]float64, 0, 2)
	for _, n := range []int{4096, 16384} {
		ds := workload.Gen(workload.Config{Seed: 95, Objects: n, Dim: 3, Vocab: 200, DocLen: 5})
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ix, err := BuildORPKWHigh(ds, 2, WithParallelism(1), WithoutObs())
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		held := 0
		for _, f := range frameworksOf(t, ix) {
			held += len(f.ids)
		}
		perObject = append(perObject, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(held))
		t.Logf("n=%d: %d objects in secondaries, %d bytes allocated, %.0f per indexed object",
			n, held, m1.TotalAlloc-m0.TotalAlloc, perObject[len(perObject)-1])
	}
	if perObject[1] > 1.5*perObject[0] {
		t.Fatalf("allocated bytes per indexed object grew from %.0f to %.0f with N: build scratch follows secondaries x N, not sum|objs|", perObject[0], perObject[1])
	}
}

// Build scratch is sized by the keywords a build meets, never by their
// values: keywords run up to 2^32-1, and a build over them allocates what a
// build over small keywords does.
func TestBuildScratchIgnoresKeywordValues(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	objs := make([]dataset.Object, 4096)
	for i := range objs {
		objs[i] = dataset.Object{
			Point: geom.Point{rng.Float64(), rng.Float64()},
			Doc: []dataset.Keyword{
				math.MaxUint32 - dataset.Keyword(rng.Intn(16)),
				math.MaxUint32 - 16 - dataset.Keyword(rng.Intn(16)),
				dataset.Keyword(rng.Intn(8)),
			},
		}
	}
	ds := dataset.MustNew(objs)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ix, err := BuildORPKW(ds, 2, WithParallelism(1), WithoutObs())
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc >= 64<<20 {
		t.Fatalf("a build over keywords up to 2^32-1 allocated %d bytes", alloc)
	}
	ws := []dataset.Keyword{math.MaxUint32, math.MaxUint32 - 16}
	q := geom.UniverseRect(2)
	got, _, err := ix.CollectInto(q, ws, QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := ds.Filter(q, ws); len(want) == 0 {
		t.Fatal("the fixture's query matches nothing")
	} else {
		equalIDs(t, sortedIDs(got), want, "keywords near 2^32")
	}
}
