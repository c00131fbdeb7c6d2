package serve

import (
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"kwsc"
	"kwsc/internal/geom"
	"kwsc/internal/obs"
	"kwsc/internal/workload"
)

// legCounts reads the scatter-mode series out of the registry.
func legCounts() (c [numLegModes]int64) {
	snap := obs.Default().Snapshot()
	for mode, name := range [numLegModes]string{"inline", "spawned", "pruned"} {
		c[mode] = snap.Counter(fmt.Sprintf("kwscd_scatter_legs_total{mode=%q}", name))
	}
	return c
}

// replayModes replays scatter's rule over an answered request: how many of
// its legs an unpruned scatter ran inline and how many it spawned. Remote legs
// spawn; the local ones run in shard order until one has cost more than
// inlineWorkUnits with at least two left, and then all of those but the last
// spawn. With no local leg the request goroutine keeps one.
func replayModes(s *Server, resp *kwsc.QueryResponse, staleness time.Duration) (inline, spawned int64) {
	var local []int
	for i, sh := range s.shards {
		if len(s.shards) > 1 && sh.remote(staleness) {
			spawned++
		} else {
			local = append(local, i)
		}
	}
	if len(local) == 0 {
		return 1, spawned - 1
	}
	for n, i := range local {
		inline++
		if left := int64(len(local) - n - 1); left > 1 && resp.Shards[i].Ops > inlineWorkUnits {
			return inline + 1, spawned + left - 1
		}
	}
	return inline, spawned
}

// writeAll inserts objs into the dynamic server s in order and returns each
// handle's position in objs.
func writeAll(t *testing.T, s *Server, objs []kwsc.Object) map[int64]int64 {
	t.Helper()
	pos := make(map[int64]int64, len(objs))
	for i, o := range objs {
		resp, err := s.Write(&kwsc.WriteRequest{Op: kwsc.OpInsert, Point: o.Point, Doc: o.Doc})
		if err != nil {
			t.Fatal(err)
		}
		pos[resp.Handle] = int64(i)
	}
	return pos
}

// zipfStream is tiny-scatter's traffic: small rectangles, two keywords drawn
// from the frequent quarter of a Zipf vocabulary.
func zipfStream(rng *rand.Rand, vocab int) *kwsc.QueryRequest {
	r := workload.RandRect(rng, 2, 0.05+0.3*rng.Float64())
	return &kwsc.QueryRequest{Rect: &kwsc.RectWire{Lo: r.Lo, Hi: r.Hi}, Keywords: workload.RandKeywords(rng, vocab, 2)}
}

// TestScatterModeByEstimate pins the inline-or-spawn rule and its metric: a
// remote leg spawns, and a local leg is priced by what an earlier inline
// sibling measured. Modes are read back from kwscd_scatter_legs_total and
// must equal replayModes over every response's per-shard work units, and
// every answer equals the brute-force oracle. On a Zipf k=2 corpus
// (tiny-scatter's shape) nearly every leg runs inline, on static and on
// dynamic shards. A planted k=3 triple with N/8-long lists costs every leg
// more than inlineWorkUnits, so each request spawns mid-scatter: after its
// first leg, the two middle legs go to goroutines and the request goroutine
// runs the last one. A bounded-staleness read over replica groups spawns
// every leg but the one the request goroutine keeps; its replicas are the
// primary's own leg endpoints, so their answers are exact too.
func TestScatterModeByEstimate(t *testing.T) {
	const vocab = 1000
	zipf := objectsOf(workload.Gen(workload.Config{Seed: 3, Objects: 16_000, Dim: 2, Vocab: vocab, DocLen: 6}))

	static, err := NewStatic(zipf, Config{Shards: 4, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer static.Close()

	dynamic, err := NewDynamic("", nil, Config{Shards: 2, Dim: 2, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer dynamic.Close()
	dynObjs := zipf[:6000]
	objOf := writeAll(t, dynamic, dynObjs)

	const plantedN = 65_536
	ds, plantedKws, _ := workload.GenPlanted(workload.Planted{Seed: 3, Objects: plantedN, Dim: 2, K: 3, Out: 64, Partial: plantedN / 8})
	planted := objectsOf(ds)
	heavy, err := NewStatic(planted, Config{Shards: 4, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer heavy.Close()

	// The replica group's one replica is the primary itself, reached through
	// its own /repl/v1 leg endpoints.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	replicated, err := NewDynamic("", nil, Config{Shards: 2, Dim: 2, K: 2,
		ReplicaURLs: []string{"http://" + ln.Addr().String()}, ReplicaProbe: 15 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer replicated.Close()
	replObjs := zipf[:2000]
	replOf := writeAll(t, replicated, replObjs)
	ts := httptest.NewUnstartedServer(replicated.Handler())
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	defer ts.Close()
	waitFor(t, 5*time.Second, "replica legs alive", func() bool {
		for _, sh := range replicated.shards {
			if !sh.(*replicaGroup).legs[0].alive() {
				return false
			}
		}
		return true
	})

	for _, tc := range []struct {
		name    string
		s       *Server
		objs    []kwsc.Object
		next    func(*rand.Rand) *kwsc.QueryRequest
		toObj   func(int64) int64
		queries int
		// minInline is the least share of legs the stream must run inline;
		// spawns is how many legs every request must spawn (0: no demand).
		minInline float64
		spawns    int64
		// staleness is the requests' staleness bound.
		staleness time.Duration
	}{
		{name: "zipf-static-4", s: static, objs: zipf, queries: 600, minInline: 0.95,
			next: func(rng *rand.Rand) *kwsc.QueryRequest { return zipfStream(rng, vocab) }},
		{name: "zipf-dynamic-2", s: dynamic, objs: dynObjs, queries: 600, minInline: 1,
			next:  func(rng *rand.Rand) *kwsc.QueryRequest { return zipfStream(rng, vocab) },
			toObj: func(h int64) int64 { return objOf[h] }},
		{name: "planted-static-4", s: heavy, objs: planted, queries: 60, spawns: 2,
			next: func(rng *rand.Rand) *kwsc.QueryRequest {
				r := workload.RandRect(rng, 2, 0.2+0.3*rng.Float64())
				return &kwsc.QueryRequest{Rect: &kwsc.RectWire{Lo: r.Lo, Hi: r.Hi}, Keywords: plantedKws}
			}},
		{name: "replica-stale-2", s: replicated, objs: replObjs, queries: 100, spawns: 1, staleness: time.Minute,
			next: func(rng *rand.Rand) *kwsc.QueryRequest {
				req := zipfStream(rng, vocab)
				req.MaxStalenessMs = time.Minute.Milliseconds()
				return req
			},
			toObj: func(h int64) int64 { return replOf[h] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			var wantInline, wantSpawned int64
			replicas := 0
			before := legCounts()
			for q := 0; q < tc.queries; q++ {
				req := tc.next(rng)
				resp, err := tc.s.Query(req, false)
				if err != nil {
					t.Fatal(err)
				}
				in, sp := replayModes(tc.s, resp, tc.staleness)
				if tc.spawns > 0 && sp != tc.spawns {
					t.Fatalf("query %d: legs cost %+v, the rule spawns %d, want %d", q, resp.Shards, sp, tc.spawns)
				}
				wantInline, wantSpawned = wantInline+in, wantSpawned+sp
				got := resp.IDs
				if tc.toObj != nil {
					got = make([]int64, len(resp.IDs))
					for i, h := range resp.IDs {
						got[i] = tc.toObj(h)
					}
					slices.Sort(got)
				}
				if want := brute(tc.objs, regionOf(req), req.Keywords); !slices.Equal(got, want) && len(got)+len(want) > 0 {
					t.Fatalf("query %d: got %v, want %v", q, got, want)
				}
				for _, so := range resp.Shards {
					if so.Replica == "replica-0" {
						replicas++
					}
				}
			}
			if tc.staleness > 0 && replicas == 0 {
				t.Fatal("no leg was answered by the replica")
			}
			after := legCounts()
			inline, spawned, pruned := after[legInline]-before[legInline], after[legSpawned]-before[legSpawned], after[legPruned]-before[legPruned]
			if inline != wantInline || spawned != wantSpawned || pruned != 0 {
				t.Fatalf("legs ran inline/spawned/pruned = %d/%d/%d, the rule dictates %d/%d/0", inline, spawned, pruned, wantInline, wantSpawned)
			}
			if share := float64(inline) / float64(inline+spawned); share < tc.minInline {
				t.Fatalf("only %.1f%% of legs ran inline, want >= %.0f%%", 100*share, 100*tc.minInline)
			}
		})
	}
}

// TestInlineScatterSharedDeadline: legs run one after another still share the
// request's one absolute deadline. With it already in the past every leg —
// the first and the ones entered after it — stops at its first policy poll
// with the typed deadline outcome, and whatever prefix comes back is part of
// the true answer.
func TestInlineScatterSharedDeadline(t *testing.T) {
	objs := genObjects(2000, 53)
	static, err := NewStatic(objs, Config{Shards: 4, K: testK, DefaultTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer static.Close()
	dynamic, err := NewDynamic("", objs, Config{Shards: 3, Dim: 2, K: testK, DefaultTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer dynamic.Close()
	for name, s := range map[string]*Server{"static": static, "dynamic": dynamic} {
		rng := rand.New(rand.NewSource(59))
		for q := 0; q < 30; q++ {
			// Keyword-only requests: every shard's root meets the universe,
			// so every leg reaches a policy poll. The keywords come from
			// the vocabulary's rare half, small at every root: light legs.
			w := kwsc.Keyword(30 + rng.Intn(29))
			req := &kwsc.QueryRequest{Keywords: []kwsc.Keyword{w, w + 1}}
			before := legCounts()
			resp, err := s.Query(req, false)
			if err != nil {
				t.Fatal(err)
			}
			if after := legCounts(); after[legSpawned] != before[legSpawned] {
				t.Fatalf("%s query %d spawned a leg", name, q)
			}
			if !resp.Truncated {
				t.Fatalf("%s query %d: expired deadline without Truncated", name, q)
			}
			for _, so := range resp.Shards {
				if so.Outcome != "deadline" {
					t.Fatalf("%s query %d shard %d: outcome %q, want deadline", name, q, so.Shard, so.Outcome)
				}
			}
			if name == "static" { // dynamic ids are handles; the subset check needs the oracle's id space
				want := brute(objs, nil, req.Keywords)
				for _, id := range resp.IDs {
					if !slices.Contains(want, id) {
						t.Fatalf("static query %d: id %d outside the true answer", q, id)
					}
				}
			}
		}
	}
}

// TestPooledScatterNoAliasing: a response never shares memory with the pooled
// per-request state. Eight goroutines hammer one server with queries whose
// answers all differ; each keeps its previous response and checks, after the
// next call has recycled and overwritten the pooled buffers, that the old one
// still says what it said.
func TestPooledScatterNoAliasing(t *testing.T) {
	objs := genObjects(3000, 61)
	s, err := NewStatic(objs, Config{Shards: 4, K: testK})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A pool of mixed requests (rectangles, spheres, keyword-only; with and
	// without a limit; light and spawning) with pairwise distinct non-empty
	// answers.
	type pinned struct {
		req  *kwsc.QueryRequest
		want []int64
	}
	var pool []pinned
	rng := rand.New(rand.NewSource(67))
	seen := map[string]bool{}
	for len(pool) < 48 {
		req := randQuery(rng)
		want := brute(objs, regionOf(req), req.Keywords)
		if rng.Intn(2) == 0 && len(want) > 1 {
			// Under a limit each shard keeps the first ids its traversal
			// meets, so the answer is a fixed subset of the oracle's, not
			// its smallest ids: pin what a quiet server returns.
			req.Limit = 1 + rng.Intn(len(want))
			resp, err := s.Query(req, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range resp.IDs {
				if !slices.Contains(want, id) {
					t.Fatalf("limit query returned id %d outside the true answer", id)
				}
			}
			want = resp.IDs
		}
		if key := fmt.Sprint(want); len(want) > 0 && !seen[key] {
			seen[key] = true
			pool = append(pool, pinned{req, want})
		}
	}

	const goroutines, rounds = 8, 2000
	before := legCounts()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var prev *kwsc.QueryResponse
			var prevWant []int64
			var prevShards []kwsc.ShardOutcome
			for r := 0; r < rounds; r++ {
				p := pool[rng.Intn(len(pool))]
				resp, err := s.Query(p.req, false)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(resp.IDs, p.want) {
					t.Errorf("goroutine %d round %d: got %v, want %v", g, r, resp.IDs, p.want)
					return
				}
				if prev != nil && (!slices.Equal(prev.IDs, prevWant) || !slices.Equal(prev.Shards, prevShards)) {
					t.Errorf("goroutine %d round %d: the previous response changed under the next call", g, r)
					return
				}
				prev, prevWant, prevShards = resp, p.want, slices.Clone(resp.Shards)
			}
		}(g)
	}
	wg.Wait()
	if after := legCounts(); after[legInline] == before[legInline] || after[legSpawned] == before[legSpawned] {
		t.Fatalf("the request pool exercised one scatter mode only: inline %d, spawned %d",
			after[legInline]-before[legInline], after[legSpawned]-before[legSpawned])
	}
}

// TestRangePartitionPrunesLegs: under range partitioning a leg whose
// dimension-0 interval misses the rectangle is not run — it still reports
// ok/0/0 — and the answers stay exact. Bounds are closed: a rectangle ending
// exactly on a cut reaches the shard above it, one starting there does not
// reach the shard below.
func TestRangePartitionPrunesLegs(t *testing.T) {
	objs := genObjects(4000, 71)
	s, err := NewStatic(objs, Config{Shards: 4, Partition: PartitionRange, K: testK})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cuts := s.part.cuts

	rng := rand.New(rand.NewSource(73))
	before := legCounts()
	var wantPruned int64
	for q := 0; q < 200; q++ {
		req := randQuery(rng)
		if req.Rect != nil && q%2 == 0 {
			// Narrow slabs, so most rectangles miss most shards.
			w := 0.02 + 0.1*rng.Float64()
			lo := rng.Float64() * (1 - w)
			req.Rect.Lo[0], req.Rect.Hi[0] = lo, lo+w
		}
		resp, err := s.Query(req, false)
		if err != nil {
			t.Fatal(err)
		}
		if want := brute(objs, regionOf(req), req.Keywords); !slices.Equal(resp.IDs, want) && len(resp.IDs)+len(want) > 0 {
			t.Fatalf("query %d (%+v): got %v, want %v", q, req, resp.IDs, want)
		}
		if len(resp.Shards) != 4 {
			t.Fatalf("query %d: %d shard outcomes, want 4", q, len(resp.Shards))
		}
		box := req.BoundingRect(2)
		for i, so := range resp.Shards {
			if s.part.misses(i, box) {
				wantPruned++
				if so.Outcome != "ok" || so.Reported != 0 || so.Ops != 0 {
					t.Fatalf("query %d: pruned shard %d reports %+v", q, i, so)
				}
			}
		}
	}
	after := legCounts()
	if got := after[legPruned] - before[legPruned]; got != wantPruned || got == 0 {
		t.Fatalf("pruned %d legs, the cuts dictate %d (want > 0)", got, wantPruned)
	}

	// A rectangle straddling cut 1 prunes neither neighbour, and one whose
	// edge lies exactly on it obeys x == cuts[i] belonging to shard i+1.
	c := cuts[1]
	for _, tc := range []struct {
		lo, hi float64
		live   []bool
	}{
		{c - 0.01, c + 0.01, []bool{false, true, true, false}},
		{cuts[0], c, []bool{false, true, true, false}},   // hi == cut: shard 2 owns x == c
		{c, c + 0.01, []bool{false, false, true, false}}, // lo == cut: shard 1 ends below c
		{cuts[0] - 0.01, c - 1e-9, []bool{true, true, false, false}},
	} {
		box := geom.NewRect([]float64{tc.lo, 0}, []float64{tc.hi, 1})
		for i, live := range tc.live {
			if s.part.misses(i, box) == live {
				t.Fatalf("rect [%g, %g] against cuts %v: shard %d pruned=%v, want live=%v", tc.lo, tc.hi, cuts, i, !live, live)
			}
		}
	}
	// An object sitting exactly on a cut is found through the shard above it.
	onCut := -1
	for i, o := range objs {
		if slices.Contains(cuts, o.Point[0]) && len(o.Doc) >= testK {
			onCut, c = i, o.Point[0]
			break
		}
	}
	if onCut < 0 {
		t.Fatal("no object with a k-keyword document on a cut (the quantile cuts are data points)")
	}
	o := objs[onCut]
	req := &kwsc.QueryRequest{Rect: &kwsc.RectWire{Lo: []float64{c, o.Point[1]}, Hi: []float64{c, o.Point[1]}}, Keywords: o.Doc[:testK]}
	resp, err := s.Query(req, false)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(resp.IDs, int64(onCut)) {
		t.Fatalf("object %d on cut %g not found: %v", onCut, c, resp.IDs)
	}
}

// TestDynamicRangePruning: a dynamic corpus that started empty prunes by the
// same cuts its inserts were routed by, stays exact, and a pruned leg reports
// the shard's current seq.
func TestDynamicRangePruning(t *testing.T) {
	objs := genObjects(1200, 79)
	s, err := NewDynamic("", nil, Config{Shards: 3, Partition: PartitionRange, Dim: 2, K: testK})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	objOf := make(map[int64]int64, len(objs))
	seqs := make([]uint64, 3)
	for i, o := range objs {
		resp, err := s.Write(&kwsc.WriteRequest{Op: kwsc.OpInsert, Point: o.Point, Doc: o.Doc})
		if err != nil {
			t.Fatal(err)
		}
		objOf[resp.Handle] = int64(i)
		seqs[resp.Shard] = resp.Seq
	}
	rng := rand.New(rand.NewSource(83))
	before := legCounts()
	for q := 0; q < 100; q++ {
		w := 0.02 + 0.2*rng.Float64()
		lo := rng.Float64() * (1 - w)
		req := &kwsc.QueryRequest{Keywords: workload.RandKeywords(rng, 60, testK),
			Rect: &kwsc.RectWire{Lo: []float64{lo, 0}, Hi: []float64{lo + w, 1}}}
		resp, err := s.Query(req, false)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int64, len(resp.IDs))
		for i, h := range resp.IDs {
			got[i] = objOf[h]
		}
		slices.Sort(got)
		if want := brute(objs, regionOf(req), req.Keywords); !slices.Equal(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("query %d: got %v, want %v", q, got, want)
		}
		for i, so := range resp.Shards {
			if so.Seq != seqs[i] {
				t.Fatalf("query %d shard %d answers at seq %d, holds %d", q, i, so.Seq, seqs[i])
			}
		}
	}
	if pruned := legCounts()[legPruned] - before[legPruned]; pruned == 0 {
		t.Fatal("narrow slabs over three range shards pruned nothing")
	}
}
