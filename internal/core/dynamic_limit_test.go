package core

import (
	"math/rand"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

// allMatching returns n objects spread over the unit square, every one
// carrying keywords 1 and 2, so every object matches a universe query.
func allMatching(seed int64, n int) []dataset.Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]dataset.Object, n)
	for i := range objs {
		objs[i] = dataset.Object{Point: geom.Point{rng.Float64(), rng.Float64()}, Doc: []dataset.Keyword{1, 2}}
	}
	return objs
}

// collectDyn runs a dynamic query and returns the handles it reported.
func collectDyn(t *testing.T, d *DynamicORPKW, opts QueryOpts) ([]int64, QueryStats) {
	t.Helper()
	var got []int64
	st, err := d.Query(geom.UniverseRect(2), []dataset.Keyword{1, 2}, opts, func(h int64, _ *dataset.Object) { got = append(got, h) })
	if err != nil {
		t.Fatal(err)
	}
	return got, st
}

// Limit ends the bucket being traversed once that many live objects are
// reported (the paper's footnote 4), so a dynamic bucket stops where a static
// index over the same objects does. A tombstoned hit does not count.
func TestDynamicLimitEndsBucket(t *testing.T) {
	const n = 8192
	objs := allMatching(71, n)
	ws := []dataset.Keyword{1, 2}
	static, err := BuildORPKW(dataset.MustNew(objs), 2, WithoutObs())
	if err != nil {
		t.Fatal(err)
	}
	_, one, err := static.CollectInto(geom.UniverseRect(2), ws, QueryOpts{Limit: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, two, err := static.CollectInto(geom.UniverseRect(2), ws, QueryOpts{Limit: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if one.NodesVisited != 1 || one.Ops != 2 {
		t.Fatalf("static Limit 1: %d nodes, %d units, want 1 and 2", one.NodesVisited, one.Ops)
	}

	// The buffer fills at n and carries into one bucket of n objects, in
	// handle order: the static index's dataset exactly.
	d, err := NewDynamicORPKW(2, 2, n, WithoutObs())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if _, err := d.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if b := d.Buckets(); len(b) != 1 || b[0] != n {
		t.Fatalf("buckets %v, want one of %d", b, n)
	}
	got, st := collectDyn(t, d, QueryOpts{Limit: 1})
	if len(got) != 1 || st.Reported != 1 || !st.Truncated || st.NodesVisited != one.NodesVisited || st.Ops != one.Ops {
		t.Fatalf("dynamic Limit 1: %d results, %+v; want 1 result in %d nodes, %d units", len(got), st, one.NodesVisited, one.Ops)
	}

	// With the first hit tombstoned the bucket goes on to the next live one:
	// the work of a static Limit 2.
	if ok, err := d.Delete(got[0]); !ok || err != nil {
		t.Fatalf("delete %d: %v %v", got[0], ok, err)
	}
	again, st := collectDyn(t, d, QueryOpts{Limit: 1})
	if len(again) != 1 || again[0] == got[0] || st.Reported != 1 || st.NodesVisited != two.NodesVisited || st.Ops != two.Ops {
		t.Fatalf("Limit 1 past a tombstone: %v, %+v; want one live result in %d nodes, %d units", again, st, two.NodesVisited, two.Ops)
	}
}

// The paged base ends its intersection at Limit too, counting only the
// entries the dynamic layer keeps: one candidate for Limit 1, not all n.
func TestDynamicLimitEndsPagedBase(t *testing.T) {
	const n = 8192
	objs := allMatching(72, n)
	snap := &Snapshot{K: 2, Dim: 2, LastSeq: n, NextHandle: n, Objs: dataset.MustNew(objs)}
	for h := int64(0); h < n; h++ {
		snap.Handles = append(snap.Handles, h)
	}
	b, err := OpenPagedBase(writePagedCheckpoint(t, t.TempDir(), "limit.ckpt", snap), PagedBaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	d, err := RestoreDynamicORPKWFromBase(2, 2, 64, b, n, WithoutObs())
	if err != nil {
		t.Fatal(err)
	}
	_, full := collectDyn(t, d, QueryOpts{})
	if full.Reported != n || full.Ops != n {
		t.Fatalf("unlimited: %+v, want %d results and units", full, n)
	}
	got, st := collectDyn(t, d, QueryOpts{Limit: 1})
	if len(got) != 1 || st.Reported != 1 || !st.Truncated || st.Ops != 1 || st.NodesVisited != full.NodesVisited {
		t.Fatalf("Limit 1: %d results, %+v; want 1 result for 1 unit after %d nodes", len(got), st, full.NodesVisited)
	}
	if ok, err := d.Delete(got[0]); !ok || err != nil {
		t.Fatalf("delete %d: %v %v", got[0], ok, err)
	}
	again, st := collectDyn(t, d, QueryOpts{Limit: 1})
	if len(again) != 1 || again[0] == got[0] || st.Reported != 1 || st.Ops != 2 {
		t.Fatalf("Limit 1 past a tombstone: %v, %+v; want one live result for 2 units", again, st)
	}
}
