package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/spart"
	"kwsc/internal/workload"
)

func sameSorted(t *testing.T, label string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ids, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: id %d is %d, want %d", label, i, got[i], want[i])
		}
	}
}

// Parallel and serial ORP-KW builds (d = 2) must answer an identical query
// battery identically. The dataset is large enough that subtree groups
// exceed the sequential cutoff, so the parallel path genuinely runs.
func TestParallelBuildDeterminismORPKW2D(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 11, Objects: 6000, Dim: 2, Vocab: 25, DocLen: 4})
	serial, err := BuildORPKWWith(ds, 2, BuildOpts{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildORPKWWith(ds, 2, BuildOpts{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for q := 0; q < 60; q++ {
		rect := workload.RandRect(rng, 2, 0.4)
		ws := workload.RandKeywords(rng, 25, 2)
		a, _, err := serial.Collect(rect, ws, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := par.Collect(rect, ws, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sameSorted(t, "orpkw2d", sortedIDs(b), sortedIDs(a))
		if !sameIDSet(b, ds.Filter(rect, ws)) {
			t.Fatalf("query %d: parallel build disagrees with oracle", q)
		}
	}
}

// Same determinism contract for the d = 3 dimension-reduction index, whose
// parallel build also covers per-node secondary structures.
func TestParallelBuildDeterminismORPKW3D(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 21, Objects: 4000, Dim: 3, Vocab: 20, DocLen: 4})
	serial, err := BuildORPKWHighWith(ds, 2, BuildOpts{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildORPKWHighWith(ds, 2, BuildOpts{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for q := 0; q < 40; q++ {
		rect := workload.RandRect(rng, 3, 0.5)
		ws := workload.RandKeywords(rng, 20, 2)
		a, _, err := serial.Collect(rect, ws, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := par.Collect(rect, ws, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sameSorted(t, "orpkw3d", sortedIDs(b), sortedIDs(a))
		if !sameIDSet(b, ds.Filter(rect, ws)) {
			t.Fatalf("query %d: parallel build disagrees with oracle", q)
		}
	}
}

// Same determinism contract for the partition-tree LC-KW route.
func TestParallelBuildDeterminismLCKW(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 31, Objects: 5000, Dim: 2, Vocab: 20, DocLen: 4})
	serial, err := BuildSPKW(ds, SPKWConfig{K: 2, Build: BuildOpts{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildSPKW(ds, SPKWConfig{K: 2, Build: BuildOpts{Parallelism: 4}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	for q := 0; q < 30; q++ {
		rect := workload.RandRect(rng, 2, 0.5)
		hs := []geom.Halfspace{
			{Coef: []float64{1, 0}, Bound: rect.Hi[0]},
			{Coef: []float64{-1, 0}, Bound: -rect.Lo[0]},
			{Coef: []float64{0, 1}, Bound: rect.Hi[1]},
		}
		ws := workload.RandKeywords(rng, 20, 2)
		a, _, err := serial.CollectConstraints(hs, ws, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := par.CollectConstraints(hs, ws, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sameSorted(t, "lckw", sortedIDs(b), sortedIDs(a))
	}
}

// A kd-substrate parallel build must also match, since ORP-KW shares the
// framework with custom splitters.
func TestParallelBuildDeterminismKDSplitter(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 41, Objects: 5000, Dim: 2, Vocab: 18, DocLen: 4})
	build := func(p int) *Framework {
		pts := make([]geom.Point, ds.Len())
		for i := range pts {
			pts[i] = ds.Point(int32(i))
		}
		fw, err := BuildFramework(ds, FrameworkConfig{
			K:           2,
			Splitter:    &spart.KD{Dim: 2},
			Points:      pts,
			Parallelism: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fw
	}
	serial, par := build(1), build(4)
	rng := rand.New(rand.NewSource(42))
	for q := 0; q < 30; q++ {
		rect := workload.RandRect(rng, 2, 0.4)
		ws := workload.RandKeywords(rng, 18, 2)
		a, _, err := serial.Collect(rect, ws, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := par.Collect(rect, ws, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sameSorted(t, "framework", sortedIDs(b), sortedIDs(a))
	}
}

// A shared index must serve QueryBatch and plain Collect calls from many
// goroutines at once; run under -race this exercises the pooled query
// contexts for write collisions.
func TestConcurrentQueriesShareIndex(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 51, Objects: 1200, Dim: 2, Vocab: 20, DocLen: 4})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	queries := makeBatch(rng, 48)
	want := make([][]int32, len(queries))
	for i, q := range queries {
		want[i] = sortedIDs(ds.Filter(q.Rect, q.Keywords))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results := ix.QueryBatch(queries, 4)
			for i, r := range results {
				if r.Err != nil {
					t.Errorf("goroutine %d query %d: %v", g, i, r.Err)
					return
				}
				sameSorted(t, "batch", sortedIDs(r.IDs), want[i])
			}
		}(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range queries {
				ids, _, err := ix.Collect(queries[i].Rect, queries[i].Keywords, QueryOpts{})
				if err != nil {
					t.Errorf("goroutine %d collect %d: %v", g, i, err)
					return
				}
				sameSorted(t, "collect", sortedIDs(ids), want[i])
			}
		}(g)
	}
	wg.Wait()
}

// Returned ID slices are caller-owned: scribbling over one result must not
// corrupt any later query, and batch results must stay independent of the
// buffers a subsequent QueryBatchInto reuses.
func TestCollectResultsCallerOwned(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 61, Objects: 900, Dim: 2, Vocab: 15, DocLen: 4})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	type probe struct {
		rect *geom.Rect
		ws   []dataset.Keyword
		want []int32
	}
	probes := make([]probe, 25)
	for i := range probes {
		r := workload.RandRect(rng, 2, 0.4)
		w := workload.RandKeywords(rng, 15, 2)
		probes[i] = probe{rect: r, ws: w, want: sortedIDs(ds.Filter(r, w))}
	}
	var held [][]int32
	for _, p := range probes {
		ids, _, err := ix.Collect(p.rect, p.ws, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sameSorted(t, "pristine", sortedIDs(ids), p.want)
		held = append(held, ids)
		// Vandalize every slice handed out so far; if any of them aliases
		// index- or pool-owned memory, a later query will see the damage.
		for _, h := range held {
			for j := range h {
				h[j] = -7
			}
		}
	}
	// One clean pass after all the vandalism.
	for _, p := range probes {
		ids, _, err := ix.Collect(p.rect, p.ws, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sameSorted(t, "after-mutation", sortedIDs(ids), p.want)
	}
}

// QueryBatchInto reuses prior IDs buffers without leaking stale contents
// into the new answers.
func TestQueryBatchIntoReuse(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 71, Objects: 900, Dim: 2, Vocab: 15, DocLen: 4})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	first := makeBatch(rng, 30)
	second := makeBatch(rng, 30)
	prev := ix.QueryBatch(first, 4)
	results := ix.QueryBatchInto(second, 4, prev)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		sameSorted(t, "into", sortedIDs(r.IDs), sortedIDs(ds.Filter(second[i].Rect, second[i].Keywords)))
	}
	// A shorter prev must also be fine.
	third := makeBatch(rng, 30)
	results = ix.QueryBatchInto(third, 4, results[:7])
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		sameSorted(t, "short-prev", sortedIDs(r.IDs), sortedIDs(ds.Filter(third[i].Rect, third[i].Keywords)))
	}
}

// CollectInto appends into the supplied buffer, reusing its capacity.
func TestCollectIntoReusesBuffer(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 81, Objects: 700, Dim: 2, Vocab: 12, DocLen: 4})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(82))
	buf := make([]int32, 0, 1024)
	for q := 0; q < 20; q++ {
		rect := workload.RandRect(rng, 2, 0.5)
		ws := workload.RandKeywords(rng, 12, 2)
		ids, _, err := ix.CollectInto(rect, ws, QueryOpts{}, buf)
		if err != nil {
			t.Fatal(err)
		}
		sameSorted(t, "collect-into", sortedIDs(ids), sortedIDs(ds.Filter(rect, ws)))
		if len(ids) > 0 && len(ids) <= cap(buf) && &ids[0] != &buf[:1][0] {
			t.Fatal("CollectInto did not reuse the supplied buffer")
		}
		buf = ids
	}
}

// Leaf-order numbering is part of the determinism contract: a child's rank
// interval follows from group sizes known before any subtree is built, so a
// parallel build must produce the very image a sequential one does — rank
// column, intervals, lists and bitmaps, column for column — and emit every
// answer in the same order. The dimension-reduction index is compared
// secondary by secondary.
func TestParallelBuildIdenticalImage(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 31, Objects: 12_000, Dim: 2, Vocab: 30, DocLen: 4})
	images := make([]*FlatArenas, 2)
	indexes := make([]*ORPKW, 2)
	for i, par := range []int{1, 4} {
		ix, err := BuildORPKWWith(ds, 2, BuildOpts{Parallelism: par, NoObs: true})
		if err != nil {
			t.Fatal(err)
		}
		rankStructure(t, fmt.Sprintf("parallelism %d", par), ix.fw)
		if images[i], err = ix.fw.ExportFlat(); err != nil {
			t.Fatal(err)
		}
		indexes[i] = ix
	}
	if !reflect.DeepEqual(images[0], images[1]) {
		t.Fatal("parallel build exports a different flat image than the sequential build")
	}
	rng := rand.New(rand.NewSource(32))
	for q := 0; q < 40; q++ {
		rect, ws := workload.RandRect(rng, 2, 0.4), workload.RandKeywords(rng, 30, 2)
		a, sa, errA := indexes[0].Collect(rect, ws, QueryOpts{})
		b, sb, errB := indexes[1].Collect(rect, ws, QueryOpts{})
		sameIDsAndStats(t, "sequential vs parallel image", b, a, sb, sa, errB, errA)
	}

	ds3 := workload.Gen(workload.Config{Seed: 33, Objects: 6000, Dim: 3, Vocab: 20, DocLen: 4})
	var secondaries [2][]*Framework
	for i, par := range []int{1, 4} {
		ix, err := BuildORPKWHighWith(ds3, 2, BuildOpts{Parallelism: par, NoObs: true})
		if err != nil {
			t.Fatal(err)
		}
		secondaries[i] = frameworksOf(t, ix)
	}
	if len(secondaries[0]) != len(secondaries[1]) || len(secondaries[0]) == 0 {
		t.Fatalf("%d secondaries sequentially, %d in parallel", len(secondaries[0]), len(secondaries[1]))
	}
	for i, seq := range secondaries[0] {
		par := secondaries[1][i]
		rankStructure(t, fmt.Sprintf("secondary %d", i), par)
		if !slices.Equal(seq.ids, par.ids) || !slices.Equal(seq.coords, par.coords) {
			t.Fatalf("secondary %d: parallel build ranks its objects differently", i)
		}
	}
}
