//go:build !race

package core

import (
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/obs"
	"kwsc/internal/spart"
	"kwsc/internal/workload"
)

// The resilience layer must be free on queries that don't use it: with no
// policy set, the pooled-context CollectInto path stays at zero allocations
// per query, the property the seed benchmarks established. Run under the race
// detector AllocsPerRun is unreliable, hence the build tag.
func TestCollectIntoZeroAllocsWithoutPolicy(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 30, Objects: 1 << 12, Dim: 2, Vocab: 64, DocLen: 5})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := workload.RandRect(rand.New(rand.NewSource(30)), 2, 0.4)
	ws := []dataset.Keyword{1, 2}
	buf := make([]int32, 0, 4096)
	// Warm the context pool and grow buf to its steady-state capacity.
	for i := 0; i < 4; i++ {
		ids, _, err := ix.CollectInto(q, ws, QueryOpts{}, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = ids[:0]
	}
	allocs := testing.AllocsPerRun(100, func() {
		ids, _, err := ix.CollectInto(q, ws, QueryOpts{}, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = ids[:0]
	})
	if allocs != 0 {
		t.Fatalf("CollectInto without policy allocates %v per op, want 0", allocs)
	}
}

// The metrics registry must be free in the allocation sense too: with
// metrics explicitly enabled and no tracer installed, the instrumented
// CollectInto path performs only atomic updates — no span or echo is ever
// formatted.
func TestCollectIntoZeroAllocsWithMetrics(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 32, Objects: 1 << 12, Dim: 2, Vocab: 64, DocLen: 5})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	obs.SetMetricsEnabled(true)
	q := workload.RandRect(rand.New(rand.NewSource(32)), 2, 0.4)
	ws := []dataset.Keyword{1, 2}
	buf := make([]int32, 0, 4096)
	for i := 0; i < 4; i++ {
		ids, _, err := ix.CollectInto(q, ws, QueryOpts{}, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = ids[:0]
	}
	allocs := testing.AllocsPerRun(100, func() {
		ids, _, err := ix.CollectInto(q, ws, QueryOpts{}, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = ids[:0]
	})
	if allocs != 0 {
		t.Fatalf("CollectInto with metrics on allocates %v per op, want 0", allocs)
	}
}

// A node-budget policy must also stay allocation-free: polState lives inside
// the pooled context and ExecPolicy is carried by value.
func TestCollectIntoZeroAllocsWithBudgetPolicy(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 31, Objects: 1 << 12, Dim: 2, Vocab: 64, DocLen: 5})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.UniverseRect(2)
	ws := []dataset.Keyword{1, 2}
	pol := ExecPolicy{NodeBudget: 1 << 30, Deadline: time.Now().Add(time.Hour)}
	buf := make([]int32, 0, 4096)
	for i := 0; i < 4; i++ {
		ids, _, err := ix.CollectInto(q, ws, QueryOpts{Policy: pol}, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = ids[:0]
	}
	allocs := testing.AllocsPerRun(100, func() {
		ids, _, err := ix.CollectInto(q, ws, QueryOpts{Policy: pol}, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = ids[:0]
	})
	if allocs != 0 {
		t.Fatalf("CollectInto with budget policy allocates %v per op, want 0", allocs)
	}
}

// The stop-node intersection keeps its cursors, bitmap views and probe list on
// the pooled context: a planted k=3 triple whose N/8-long lists are all small
// and dense at the root — the bitmap path, as the root's lookups confirm —
// stays allocation-free.
func TestCollectIntoZeroAllocsStopNodeIntersect(t *testing.T) {
	const n = 1 << 13
	ds, kws, region := workload.GenPlanted(workload.Planted{Seed: 35, Objects: n, Dim: 2, K: 3, Out: 64, Partial: n / 8})
	ix, err := BuildORPKW(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range kws {
		if _, large, mi := ix.fw.rootLookup(w); large || mi < 0 || ix.fw.matLists[mi].Rep != ListBitmap {
			t.Fatalf("keyword %d is no bitmap at the root: the root is not a stop node of three bitmaps", w)
		}
	}
	buf := make([]int32, 0, 4096)
	var scanned int64
	run := func() {
		ids, st, err := ix.CollectInto(region, kws, QueryOpts{}, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf, scanned = ids[:0], st.MatScanned
	}
	for i := 0; i < 4; i++ {
		run()
	}
	if scanned == 0 {
		t.Fatal("the planted query scanned no materialized list")
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("CollectInto on a planted k=3 triple allocates %v per op, want 0", allocs)
	}
}

// The clip of a sparse stop node keeps its runs on the pooled context too: a
// Zipf corpus of tiny-scatter's shard shape, asked a keyword pair that stops
// the descent at the root (no pivot examined) over a rectangle of side 0.05
// whose cells the clip then visits, stays allocation-free.
func TestCollectIntoZeroAllocsClippedStopNode(t *testing.T) {
	const vocab = 1000
	ds := workload.Gen(workload.Config{Seed: 36, Objects: 12_500, Dim: 2, Vocab: vocab, DocLen: 6})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(36))
	buf := make([]int32, 0, 4096)
	var q *geom.Rect
	var ws []dataset.Keyword
	var st QueryStats
	run := func() {
		var ids []int32
		ids, st, err = ix.CollectInto(q, ws, QueryOpts{}, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = ids[:0]
	}
	for tries := 0; st.PivotChecks != 0 || st.NodesVisited < 2 || st.MatScanned == 0; tries++ {
		if tries == 1000 {
			t.Fatal("no query of the stream reached a clipped root stop node")
		}
		q, ws = workload.RandRect(rng, 2, 0.05), workload.RandKeywords(rng, vocab, 2)
		run()
	}
	for i := 0; i < 4; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("CollectInto through a clipped stop node (%+v) allocates %v per op, want 0", st, allocs)
	}
}

// The paged base's query path is allocation-free in steady state too: the
// reader (cursors, decode scratch, the reported object) comes back from the
// base's pool, and over a mapping every column read is a subslice.
func TestPagedBaseQueryZeroAllocsMapped(t *testing.T) {
	snap := snapshotOfDocs(2, diffDocs(), 34)
	b, err := OpenPagedBase(writePagedCheckpoint(t, t.TempDir(), "alloc.ckpt", snap), PagedBaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	q := geom.UniverseRect(2)
	ws := []dataset.Keyword{1, 2}
	runs, reported := 0, 0
	run := func() {
		runs++
		if _, err := b.Query(q, ws, QueryOpts{}, func(int64, *dataset.Object) bool { reported++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("mapped PagedBase.Query allocates %v per op, want 0", allocs)
	}
	if reported != 500*runs {
		t.Fatalf("%d objects reported across %d runs, want 500 each", reported, runs)
	}
}

// And through a pread pool, whether every page stays resident or most are
// evicted between queries: the cursors read their payloads through views
// the reader keeps, into scratch they hold inline, so paying for pages costs
// no allocation.
func TestPagedBaseQueryZeroAllocsPread(t *testing.T) {
	snap := snapshotOfDocs(2, diffDocs(), 34)
	ws := []dataset.Keyword{1, 2}
	for _, capPages := range []int{8, 1024} {
		path := writePagedCheckpoint(t, t.TempDir(), "alloc.ckpt", snap)
		b, err := OpenPagedBase(path, PagedBaseOptions{NoMmap: true, CapPages: capPages})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []*geom.Rect{geom.UniverseRect(2), geom.NewRect([]float64{0.4, 0.4}, []float64{0.6, 0.6})} {
			want, reported := len(snapOracle(snap, q, ws)), 0
			run := func() {
				reported = 0
				if _, err := b.Query(q, ws, QueryOpts{}, func(int64, *dataset.Object) bool { reported++; return true }); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 4; i++ {
				run()
			}
			if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
				t.Fatalf("pread PagedBase.Query (%d pages, q=%v) allocates %v per op, want 0", capPages, q, allocs)
			}
			if reported != want {
				t.Fatalf("%d objects reported, want %d", reported, want)
			}
		}
		b.Close()
	}
}

// A dynamic query runs every bucket through one pooled query context, which
// carries the scratch Object its hits are reported through, so it allocates
// nothing — not per bucket it visits, and never per reported result: the
// reported Point and Doc are views of the bucket's columns.
func TestDynamicQueryAllocsIndependentOfResults(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	d, err := NewDynamicORPKW(2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8*0b11111; i++ { // buckets 0..4 occupied, buffer empty
		if _, err := d.Insert(randObj(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if nb := d.NumBuckets(); nb != 5 {
		t.Fatalf("%d buckets, want 5", nb)
	}
	ws := []dataset.Keyword{0, 1}
	measure := func(q *geom.Rect) (allocs float64, reported int) {
		report := func(int64, *dataset.Object) { reported++ }
		for i := 0; i < 4; i++ { // warm the per-bucket pools
			if _, err := d.Query(q, ws, QueryOpts{}, report); err != nil {
				t.Fatal(err)
			}
		}
		reported = 0
		allocs = testing.AllocsPerRun(100, func() {
			if _, err := d.Query(q, ws, QueryOpts{}, report); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, reported / 101
	}
	few, nFew := measure(geom.NewRect([]float64{0.4, 0.4}, []float64{0.6, 0.6}))
	many, nMany := measure(geom.UniverseRect(2))
	if nMany < nFew+5 {
		t.Fatalf("queries report %d and %d results; test is vacuous", nFew, nMany)
	}
	if many != 0 || few != 0 {
		t.Fatalf("dynamic query allocates %v for %d results, %v for %d; want 0", many, nMany, few, nFew)
	}
}

// The Insert that completes a carry over four occupied buckets (bufferCap 64:
// 960 entries in slots 0-3 and a full buffer, all moving to slot 4) makes 13
// allocations: 3 for the insert, one for each of the gatherer's four columns,
// sized once for all five parts, and 6 for the gatherer, the successor state
// and its bucket. Growing the columns part by part instead would regrow and
// recopy them, 6 allocations more.
func TestCarryAllocations(t *testing.T) {
	const want = 13
	rng := rand.New(rand.NewSource(47))
	objs := make([]dataset.Object, 1024)
	for i := range objs {
		objs[i] = randObj(rng)
	}
	least := uint64(math.MaxUint64)
	for trial := 0; trial < 5; trial++ { // the least count drops foreign allocations
		d, err := NewDynamicORPKW(2, 2, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range objs[:1023] {
			if _, err := d.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		if got := d.Buckets(); !slices.Equal(got, []int{64, 128, 256, 512}) {
			t.Fatalf("occupancy %v before the carry, want [64 128 256 512]", got)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = d.Insert(objs[1023])
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Buckets(); !slices.Equal(got, []int{0, 0, 0, 0, 1024}) {
			t.Fatalf("occupancy %v after the carry, want [0 0 0 0 1024]", got)
		}
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != want {
		t.Fatalf("the carry over 4 buckets allocates %d times, want %d", least, want)
	}
}

// The kd tree pass allocates per build, not per node: its nodes and the slab
// their children are cut from are sized from the entries, and a split's two
// groups stay on geometry's frame. So treePass, the front end BuildFramework
// and the checkpoint writer share, allocates a small constant more at 2^16
// entries than at 2^14 — the builders of the subtrees it spawns. Cutting
// every inner node its own children, split groups and WaitGroup made about
// 7 100 allocations at 2^14 and 28 300 at 2^16.
func TestTreePassAllocationsIndependentOfN(t *testing.T) {
	least := func(n int) uint64 {
		ds := workload.Gen(workload.Config{Seed: 1, Objects: n, Dim: 2, Vocab: 1000, DocLen: 6})
		cfg := FrameworkConfig{K: 2, Splitter: &spart.KD{Dim: 2}, gate: newParGate(2), rankSpace: true}
		m := uint64(math.MaxUint64)
		for trial := 0; trial < 3; trial++ { // the least count drops foreign allocations
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := treePass(ds, cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			m = min(m, after.Mallocs-before.Mallocs)
		}
		return m
	}
	small, large := least(1<<14), least(1<<16)
	t.Logf("treePass allocations: %d at 2^14 entries, %d at 2^16", small, large)
	if large > small+64 {
		t.Fatalf("treePass allocates %d times at 2^16 entries and %d at 2^14: the tree pass allocates per node", large, small)
	}
}

// The checkpoint writer runs the build's tree, posting and coordinate passes
// and lays the rows out in columns sized once, so it allocates per write,
// not per entry or keyword: a small constant more at 2^16 entries than at
// 2^14 — the subtree builders, the keyword tables' and the packed lists'
// growth.
func TestCheckpointWriterAllocationsIndependentOfN(t *testing.T) {
	least := func(n int) uint64 {
		ds := workload.Gen(workload.Config{Seed: 1, Objects: n, Dim: 2, Vocab: 1000, DocLen: 6})
		s := &Snapshot{K: 2, Dim: 2, NextHandle: int64(n), Handles: make([]int64, n), Objs: ds}
		for i := range s.Handles {
			s.Handles[i] = int64(i)
		}
		m := uint64(math.MaxUint64)
		for trial := 0; trial < 3; trial++ { // the least count drops foreign allocations
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := WritePagedSnapshot(io.Discard, s)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			m = min(m, after.Mallocs-before.Mallocs)
		}
		return m
	}
	small, large := least(1<<14), least(1<<16)
	t.Logf("WritePagedSnapshot allocations: %d at 2^14 entries, %d at 2^16", small, large)
	if large > small+64 {
		t.Fatalf("WritePagedSnapshot allocates %d times at 2^16 entries and %d at 2^14: the writer allocates per entry or keyword", large, small)
	}
}

// The keyword pass allocates per build, not per node, too: the keyword
// structures, the children's incoming runs and the tensors are cut from the
// builder's slabs, and lists are runs of the postings. So a sequential
// BuildORPKW of tiny-scatter's corpus shape (Vocab 1000, DocLen 6, k = 2)
// allocates a small constant more at 2^16 objects than at 2^14. Rescanning
// documents with a kwNode, key slices, list growth and a bitmap per child for
// every node made 31 455 and 122 915 allocations.
func TestKeywordPassAllocationsIndependentOfN(t *testing.T) {
	least := func(n int) uint64 {
		ds := workload.Gen(workload.Config{Seed: 1, Objects: n, Dim: 2, Vocab: 1000, DocLen: 6})
		m := uint64(math.MaxUint64)
		for trial := 0; trial < 3; trial++ { // the least count drops foreign allocations
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := BuildORPKW(ds, 2, WithParallelism(1), WithoutObs())
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			m = min(m, after.Mallocs-before.Mallocs)
		}
		return m
	}
	small, large := least(1<<14), least(1<<16)
	t.Logf("BuildORPKW allocations: %d at 2^14 objects, %d at 2^16", small, large)
	if large > small+64 {
		t.Fatalf("BuildORPKW allocates %d times at 2^16 objects and %d at 2^14: the keyword pass allocates per node", large, small)
	}
}
