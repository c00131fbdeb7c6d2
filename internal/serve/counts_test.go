package serve

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kwsc"
	"kwsc/internal/core"
	"kwsc/internal/obs"
	"kwsc/internal/workload"
)

// The served shapes' hardware-free counts. Each case stands up one of bench/'s
// four workloads from internal/workload at a reduced N (bench/ is its own
// module and cannot be imported), replays a fixed request stream through
// Server.Query and Server.Write, checks every answer against a brute filter
// over the live set, and pins the stream's totals: index nodes visited and
// work units (QueryStats.Ops) from the registry's kwsc_query_nodes and
// kwsc_query_ops deltas, results from the shard reports, and page pins and
// misses from the pager's counters. The totals are exact for a given build
// of the index, so a change that moves one re-pins it and says why in its
// description, as TestBuildOutputPinned does for build output.
//
// Beside the totals it pins the stream's worst query against Theorem 1: the
// largest ratio of a query's work units, summed over its shards, to
// N^{1-1/k}(1+OUT^{1/k}), N the live set's total document length and OUT the
// query's matches in it (the limit only cuts work short, so the unlimited
// query's bound holds). A re-pin may move the ratio, but never above
// shapeBoundCeiling.

// shapeCounts are a replayed stream's totals, and its largest work-to-bound
// ratio in thousandths.
type shapeCounts struct {
	Queries, Nodes, Ops, Results, PinHits, PinMisses, BoundMilli int64
}

func (c shapeCounts) String() string {
	q := float64(max(c.Queries, 1))
	return fmt.Sprintf("{%d, %d, %d, %d, %d, %d, %d} per query: nodes %.3f, ops %.3f, results %.3f, pin hits %.3f, misses %.3f",
		c.Queries, c.Nodes, c.Ops, c.Results, c.PinHits, c.PinMisses, c.BoundMilli,
		float64(c.Nodes)/q, float64(c.Ops)/q, float64(c.Results)/q, float64(c.PinHits)/q, float64(c.PinMisses)/q)
}

// shapeBoundCeiling caps BoundMilli on every workload: the constant a served
// query may spend over Theorem 1's bound. The pinned worst is 2.275
// (rw-mixed's, over 2 shards and their buckets).
const shapeBoundCeiling = 4

// shapeLimit is bench/'s per-query limit.
const shapeLimit = 100

// shapeVocab is the vocabulary of every Gen corpus bench/ serves.
const shapeVocab = 1000

// shapeRun replays one stream against srv, keeping the live set the oracle
// filters and the counts the registry deltas give.
type shapeRun struct {
	t      *testing.T
	srv    *Server
	live   map[int64]kwsc.Object
	oldest []int64 // handles the stream inserted, oldest first
	counts shapeCounts
	bound  float64 // the largest work-to-bound ratio so far
	legs   int64   // shard legs answered, every one "ok"
	before obs.Snapshot
}

func newShapeRun(t *testing.T, srv *Server, live map[int64]kwsc.Object) *shapeRun {
	return &shapeRun{t: t, srv: srv, live: live, before: obs.Default().Snapshot()}
}

// staticLive is a static corpus's live set: global ids are positions.
func staticLive(objs []kwsc.Object) map[int64]kwsc.Object {
	live := make(map[int64]kwsc.Object, len(objs))
	for i, o := range objs {
		live[int64(i)] = o
	}
	return live
}

func (r *shapeRun) query(rect *kwsc.Rect, ws []kwsc.Keyword) {
	r.t.Helper()
	req := &kwsc.QueryRequest{Rect: &kwsc.RectWire{Lo: rect.Lo, Hi: rect.Hi}, Keywords: ws, Limit: shapeLimit}
	resp, err := r.srv.Query(req, false)
	if err != nil {
		r.t.Fatal(err)
	}
	matches, size := 0, 0
	for _, o := range r.live {
		size += len(o.Doc)
		if shapeMatch(o, rect, ws) {
			matches++
		}
	}
	if len(resp.IDs) != min(matches, shapeLimit) {
		r.t.Fatalf("query %d: %d ids, want %d of %d matches", r.counts.Queries, len(resp.IDs), min(matches, shapeLimit), matches)
	}
	for i, id := range resp.IDs {
		if o, ok := r.live[id]; !ok || !shapeMatch(o, rect, ws) || (i > 0 && id <= resp.IDs[i-1]) {
			r.t.Fatalf("query %d: id %d is not a live match, or out of order", r.counts.Queries, id)
		}
	}
	var ops int64
	for _, so := range resp.Shards {
		if so.Outcome != "ok" {
			r.t.Fatalf("query %d: shard %+v", r.counts.Queries, so)
		}
		r.counts.Results += int64(so.Reported)
		ops += so.Ops
		r.legs++
	}
	r.bound = max(r.bound, float64(ops)/core.Theorem1Cost(float64(size), len(ws), float64(matches)))
	r.counts.Queries++
}

func shapeMatch(o kwsc.Object, rect *kwsc.Rect, ws []kwsc.Keyword) bool {
	if !rect.ContainsPoint(o.Point) {
		return false
	}
	for _, w := range ws {
		found := false
		for _, x := range o.Doc {
			found = found || x == w
		}
		if !found {
			return false
		}
	}
	return true
}

func (r *shapeRun) insert(o kwsc.Object) {
	r.t.Helper()
	resp, err := r.srv.Write(&kwsc.WriteRequest{Op: kwsc.OpInsert, Point: o.Point, Doc: o.Doc})
	if err != nil {
		r.t.Fatal(err)
	}
	r.live[resp.Handle] = o
	r.oldest = append(r.oldest, resp.Handle)
}

func (r *shapeRun) removeOldest() {
	r.t.Helper()
	h := r.oldest[0]
	r.oldest = r.oldest[1:]
	resp, err := r.srv.Write(&kwsc.WriteRequest{Op: kwsc.OpDelete, Handle: h})
	if err != nil || !resp.Deleted {
		r.t.Fatalf("delete %d: %+v, %v", h, resp, err)
	}
	delete(r.live, h)
}

// finish reads the stream's registry deltas into the counts.
func (r *shapeRun) finish() shapeCounts {
	after := obs.Default().Snapshot()
	for name, h := range after.Histograms {
		d := h.Sum - r.before.Histogram(name).Sum
		switch {
		case strings.HasPrefix(name, "kwsc_query_nodes{"):
			r.counts.Nodes += d
		case strings.HasPrefix(name, "kwsc_query_ops{"):
			r.counts.Ops += d
		}
	}
	delta := func(name string) int64 { return after.Counter(name) - r.before.Counter(name) }
	for _, out := range outcomeNames {
		want := int64(0)
		if out == "ok" {
			want = r.legs
		}
		if d := delta(`kwscd_shard_outcomes_total{outcome="` + out + `"}`); d != want {
			r.t.Fatalf("kwscd_shard_outcomes_total{outcome=%q} moved by %d over %d legs, want %d", out, d, r.legs, want)
		}
	}
	r.counts.PinHits = delta("kwsc_pager_pin_hits_total")
	r.counts.PinMisses = delta("kwsc_pager_pin_misses_total")
	r.counts.BoundMilli = int64(math.Round(1000 * r.bound))
	return r.counts
}

// tiny-scatter: k = 2 queries with side 0.05 over 4 hash shards.
func tinyScatterCounts(t *testing.T) shapeCounts {
	objs := objectsOf(workload.Gen(workload.Config{Seed: 1, Objects: 16_384, Dim: 2, Vocab: shapeVocab, DocLen: 6}))
	srv, err := NewStatic(objs, Config{Shards: 4, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r := newShapeRun(t, srv, staticLive(objs))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		r.query(workload.RandRect(rng, 2, 0.05), workload.RandKeywords(rng, shapeVocab, 2))
	}
	return r.finish()
}

// heavy-core: one shard, a planted k = 3 triple with long posting lists.
func heavyCoreCounts(t *testing.T) shapeCounts {
	n := 32_768
	ds, kws, _ := workload.GenPlanted(workload.Planted{Seed: 1, Objects: n, Dim: 2, K: 3, Out: 64, Partial: n / 8})
	objs := objectsOf(ds)
	srv, err := NewStatic(objs, Config{Shards: 1, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r := newShapeRun(t, srv, staticLive(objs))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		r.query(workload.RandRect(rng, 2, 0.2+0.3*rng.Float64()), kws)
	}
	return r.finish()
}

// rw-mixed: 2 durable shards; after a backlog of inserts the stream repeats
// 8 queries, 1 insert and 1 delete of the oldest stream-inserted handle.
func rwMixedCounts(t *testing.T) shapeCounts {
	const nSeed, backlog = 4_000, 300
	all := objectsOf(workload.Gen(workload.Config{Seed: 1, Objects: 2 * nSeed, Dim: 2, Vocab: shapeVocab, DocLen: 6}))
	srv, err := NewDynamic(t.TempDir(), nil, Config{Shards: 2, Dim: 2, K: 2, DurableOptions: []kwsc.DurableOption{
		kwsc.WithFsyncPolicy(kwsc.FsyncNone), kwsc.WithAutoCheckpoint(2000)}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r := newShapeRun(t, srv, make(map[int64]kwsc.Object))
	for _, o := range all[:nSeed] {
		r.insert(o)
	}
	r.oldest = r.oldest[:0]
	fresh := all[nSeed:]
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < backlog+1500; i++ {
		switch phase := i % 10; {
		case i < backlog || phase == 4:
			r.insert(fresh[0])
			fresh = fresh[1:]
		case phase == 9:
			r.removeOldest()
		default:
			r.query(workload.RandRect(rng, 2, 0.1), workload.RandKeywords(rng, shapeVocab, 2))
		}
	}
	return r.finish()
}

// paged-cold: one durable shard's checkpoint (293 pages) reopened through a
// pread pool of 72, a quarter of it.
func pagedColdCounts(t *testing.T) shapeCounts {
	objs := objectsOf(workload.Gen(workload.Config{Seed: 1, Objects: 16_384, Dim: 2, Vocab: shapeVocab, DocLen: 6}))
	dir := t.TempDir()
	sub := filepath.Join(dir, "shard-000")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	d, err := kwsc.OpenDurable(sub, 2, 2, kwsc.WithFsyncPolicy(kwsc.FsyncNone))
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[int64]kwsc.Object, len(objs))
	for _, o := range objs {
		h, err := d.Insert(o)
		if err != nil {
			t.Fatal(err)
		}
		live[h] = o
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := NewDynamic(dir, nil, Config{Shards: 1, Dim: 2, K: 2, DurableOptions: []kwsc.DurableOption{
		kwsc.WithFsyncPolicy(kwsc.FsyncNone),
		kwsc.WithPagedRecovery(kwsc.PagedBaseOptions{NoMmap: true, CapPages: 72})}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r := newShapeRun(t, srv, live)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		r.query(workload.RandRect(rng, 2, 0.2), workload.RandKeywords(rng, shapeVocab, 2))
	}
	return r.finish()
}

func TestServedShapeCounts(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(*testing.T) shapeCounts
		want shapeCounts
	}{
		{"tiny-scatter", tinyScatterCounts, shapeCounts{400, 5405, 6852, 4, 0, 0, 1951}},
		{"heavy-core", heavyCoreCounts, shapeCounts{200, 504, 88438, 4626, 0, 0, 174}},
		{"rw-mixed", rwMixedCounts, shapeCounts{1200, 6206, 91626, 16, 0, 0, 2275}},
		// Re-pinned when the checkpoint took the build's rank order and stored
		// its tree cut at one cell: the cell-snapped order's counts were
		// {400, 11198, 2147, 69, 867, 195, 158}.
		{"paged-cold", pagedColdCounts, shapeCounts{400, 13810, 2019, 69, 862, 202, 154}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := c.run(t)
			if got != c.want {
				t.Errorf("counts moved:\n got  %v\n want %v", got, c.want)
			}
			if got.BoundMilli > 1000*shapeBoundCeiling {
				t.Errorf("a query spent %.3f times Theorem 1's bound, over the ceiling %d", float64(got.BoundMilli)/1000, shapeBoundCeiling)
			}
		})
	}
}
