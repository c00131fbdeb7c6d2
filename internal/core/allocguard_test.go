//go:build !race

package core

import (
	"math/rand"
	"testing"
	"time"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/obs"
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
// metrics explicitly enabled AND the slow log armed (but its gate above this
// query's cost), the instrumented CollectInto path performs only atomic
// updates — no span or echo is ever formatted.
func TestCollectIntoZeroAllocsWithMetricsAndSlowLog(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 32, Objects: 1 << 12, Dim: 2, Vocab: 64, DocLen: 5})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	obs.SetMetricsEnabled(true)
	obs.EnableSlowLog(4, int64(1)<<40) // armed, admits nothing realistic
	defer obs.EnableSlowLog(0, 0)
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
		t.Fatalf("CollectInto with metrics+slow-log armed allocates %v per op, want 0", allocs)
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
// and dense at the root — the bitmap path, as the root estimate confirms —
// stays allocation-free.
func TestCollectIntoZeroAllocsStopNodeIntersect(t *testing.T) {
	const n = 1 << 13
	ds, kws, region := workload.GenPlanted(workload.Planted{Seed: 35, Objects: n, Dim: 2, K: 3, Out: 64, Partial: n / 8})
	ix, err := BuildORPKW(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if est, want := ix.EstimateWork(kws), int64(1+bitmapWords(n)+n/8+64); est != want {
		t.Fatalf("root estimate %d, want %d: the root is not a stop node of three bitmaps", est, want)
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
		if _, err := b.Query(q, ws, QueryOpts{}, func(int64, *dataset.Object) { reported++ }); err != nil {
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

// A dynamic query allocates its bucket callback and the scratch Object
// beside the live count once — not per bucket it visits (the parent: 11 over
// these 5) and never per reported result: the reported Point and Doc are
// views of the bucket's columns.
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
			if _, err := d.QueryWith(q, ws, QueryOpts{}, report); err != nil {
				t.Fatal(err)
			}
		}
		reported = 0
		allocs = testing.AllocsPerRun(100, func() {
			if _, err := d.QueryWith(q, ws, QueryOpts{}, report); err != nil {
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
	if many > 3 || many != few {
		t.Fatalf("dynamic query allocates %v for %d results, %v for %d; want <= 3 and equal", many, nMany, few, nFew)
	}
}
