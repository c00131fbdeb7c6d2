package core

import (
	"bytes"
	"fmt"
	"math/rand"
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
	serial, err := BuildORPKW(ds, 2, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildORPKW(ds, 2, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for q := 0; q < 60; q++ {
		rect := workload.RandRect(rng, 2, 0.4)
		ws := workload.RandKeywords(rng, 25, 2)
		a, _, err := serial.CollectInto(rect, ws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := par.CollectInto(rect, ws, QueryOpts{}, nil)
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
	serial, err := BuildORPKWHigh(ds, 2, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildORPKWHigh(ds, 2, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for q := 0; q < 40; q++ {
		rect := workload.RandRect(rng, 3, 0.5)
		ws := workload.RandKeywords(rng, 20, 2)
		a, _, err := serial.CollectInto(rect, ws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := par.CollectInto(rect, ws, QueryOpts{}, nil)
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
	serial, err := BuildSPKW(ds, SPKWConfig{K: 2}, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildSPKW(ds, SPKWConfig{K: 2}, WithParallelism(4))
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
		a, _, err := serial.CollectInto(hs, ws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := par.CollectInto(hs, ws, QueryOpts{}, nil)
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
			K:        2,
			Splitter: &spart.KD{Dim: 2},
			Points:   pts,
			gate:     newParGate(p),
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
		a, _, err := serial.CollectInto(rect, ws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := par.CollectInto(rect, ws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameSorted(t, "framework", sortedIDs(b), sortedIDs(a))
	}
}

// A shared index must serve CollectInto calls — into a per-goroutine buffer
// and into pooled scratch — from many goroutines at once; run under -race
// this exercises the pooled query contexts for write collisions.
func TestConcurrentQueriesShareIndex(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 51, Objects: 1200, Dim: 2, Vocab: 20, DocLen: 4})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	type query struct {
		rect *geom.Rect
		ws   []dataset.Keyword
	}
	queries := make([]query, 48)
	want := make([][]int32, len(queries))
	for i := range queries {
		queries[i] = query{workload.RandRect(rng, 2, 0.1+0.8*rng.Float64()), workload.RandKeywords(rng, 20, 2)}
		want[i] = sortedIDs(ds.Filter(queries[i].rect, queries[i].ws))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []int32
			if g%2 == 0 {
				buf = make([]int32, 0, 64)
			}
			for i := range queries {
				ids, _, err := ix.CollectInto(queries[i].rect, queries[i].ws, QueryOpts{}, buf)
				if err != nil {
					t.Errorf("goroutine %d query %d: %v", g, i, err)
					return
				}
				sameSorted(t, "collect", sortedIDs(ids), want[i])
				if buf != nil {
					buf = ids
				}
			}
		}(g)
	}
	wg.Wait()
}

// Returned ID slices are caller-owned: scribbling over one result must not
// corrupt any later query.
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
		ids, _, err := ix.CollectInto(p.rect, p.ws, QueryOpts{}, nil)
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
		ids, _, err := ix.CollectInto(p.rect, p.ws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameSorted(t, "after-mutation", sortedIDs(ids), p.want)
	}
}

// CollectInto writes into the supplied buffer, reusing its capacity.
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
	var images [2]bytes.Buffer
	indexes := make([]*ORPKW, 2)
	for i, par := range []int{1, 4} {
		ix, err := BuildORPKW(ds, 2, WithParallelism(par), WithoutObs())
		if err != nil {
			t.Fatal(err)
		}
		rankStructure(t, fmt.Sprintf("parallelism %d", par), ix.fw)
		if err := writeFlat(&images[i], ix); err != nil {
			t.Fatal(err)
		}
		indexes[i] = ix
	}
	if !bytes.Equal(images[0].Bytes(), images[1].Bytes()) {
		t.Fatal("parallel build saves a different flat image than the sequential build")
	}
	rng := rand.New(rand.NewSource(32))
	for q := 0; q < 40; q++ {
		rect, ws := workload.RandRect(rng, 2, 0.4), workload.RandKeywords(rng, 30, 2)
		a, sa, errA := indexes[0].CollectInto(rect, ws, QueryOpts{}, nil)
		b, sb, errB := indexes[1].CollectInto(rect, ws, QueryOpts{}, nil)
		sameIDsAndStats(t, "sequential vs parallel image", b, a, sb, sa, errB, errA)
	}

	// tiny-scatter's shard shape: thousands of keyword nodes over a dozen
	// keyword levels, so subtrees spawned at the top levels cut their runs,
	// lists and tensors from their own slabs all the way down.
	shard := workload.Gen(workload.Config{Seed: 34, Objects: 12_500, Dim: 2, Vocab: 1000, DocLen: 6})
	var shardImages [3]bytes.Buffer
	for i, par := range []int{1, 2, 4} {
		ix, err := BuildORPKW(shard, 2, WithParallelism(par), WithoutObs())
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFlat(&shardImages[i], ix); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			nodes, levels := keywordNodes(ix.fw)
			t.Logf("the shard has %d keyword nodes over %d levels", nodes, levels)
			if nodes < 1000 || levels < 8 {
				t.Fatalf("the shard has %d keyword nodes over %d levels: not the shape this case is for", nodes, levels)
			}
		} else if !bytes.Equal(shardImages[0].Bytes(), shardImages[i].Bytes()) {
			t.Fatalf("the shard built with parallelism %d saves a different image than the sequential build", par)
		}
	}

	ds3 := workload.Gen(workload.Config{Seed: 33, Objects: 6000, Dim: 3, Vocab: 20, DocLen: 4})
	var secondaries [2][]*Framework
	for i, par := range []int{1, 4} {
		ix, err := BuildORPKWHigh(ds3, 2, WithParallelism(par), WithoutObs())
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
		sp, ss, sw := seq.rows.Columns()
		pp, ps, pw := par.rows.Columns()
		if !slices.Equal(seq.ids, par.ids) || !slices.Equal(sp, pp) || !slices.Equal(ss, ps) || !slices.Equal(sw, pw) {
			t.Fatalf("secondary %d: parallel build ranks its objects differently", i)
		}
	}
}

// keywordNodes counts f's nodes with a large keyword or a list, and the
// levels they span from the root.
func keywordNodes(f *Framework) (nodes, levels int) {
	var walk func(u int32, depth int)
	walk = func(u int32, depth int) {
		if f.l[u] == 0 && f.matStart[u] == f.matStart[u+1] {
			return
		}
		nodes, levels = nodes+1, max(levels, depth+1)
		for c := f.childFirst[u]; c < f.childFirst[u]+f.childCount[u]; c++ {
			walk(c, depth+1)
		}
	}
	walk(0, 0)
	return nodes, levels
}
