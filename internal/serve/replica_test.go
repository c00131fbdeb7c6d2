package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"kwsc"
	"kwsc/internal/core"
	"kwsc/internal/obs"
)

// Replica-aware serving tests: a follower deployment converging on its
// primary, bounded-staleness reads routing across a replica group with
// failover and hedging, and graceful degradation to stale answers when
// nothing admissible survives — with every transition asserted through
// registry metric deltas. Run under -race via `make race`.

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// primarySeqs reads every local shard's WAL seq on a dynamic primary.
func primarySeqs(s *Server) []uint64 {
	seqs := make([]uint64, len(s.locals))
	for i, sh := range s.locals {
		seqs[i] = sh.(*dynamicShard).seq()
	}
	return seqs
}

// followerCaughtUp reports whether every follower shard has applied at least
// the given primary seqs.
func followerCaughtUp(f *Server, seqs []uint64) bool {
	for i, sh := range f.locals {
		if sh.(*followerShard).health().AppliedSeq < seqs[i] {
			return false
		}
	}
	return true
}

// TestFollowerDeploymentConverges is the end-to-end replication path through
// the public API: a follower server bootstraps from a durable primary over
// HTTP, converges, keeps tailing new writes, answers queries identically,
// and rejects writes.
func TestFollowerDeploymentConverges(t *testing.T) {
	objs := genObjects(400, 61)
	cfg := Config{Shards: 2, Dim: 2, K: testK}
	p, err := NewDynamic(t.TempDir(), objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	f, err := NewFollower(t.TempDir(), ts.URL, Config{FollowerPoll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.NumShards() != p.NumShards() || f.Dim() != p.Dim() || f.K() != p.K() {
		t.Fatalf("follower shape (%d,%d,%d) != primary (%d,%d,%d)",
			f.NumShards(), f.Dim(), f.K(), p.NumShards(), p.Dim(), p.K())
	}
	seqs := primarySeqs(p)
	waitFor(t, 5*time.Second, "bootstrap catch-up", func() bool { return followerCaughtUp(f, seqs) })

	// The follower keeps tailing: new primary writes appear without restart.
	for i := 0; i < 50; i++ {
		if _, err := p.Write(&kwsc.WriteRequest{Op: kwsc.OpInsert,
			Point: []float64{rand.Float64(), rand.Float64()},
			Doc:   []kwsc.Keyword{1, 2, kwsc.Keyword(3 + i%5)}}); err != nil {
			t.Fatal(err)
		}
	}
	seqs = primarySeqs(p)
	waitFor(t, 5*time.Second, "tail catch-up", func() bool { return followerCaughtUp(f, seqs) })

	rng := rand.New(rand.NewSource(67))
	for q := 0; q < 25; q++ {
		req := randQuery(rng)
		want, err := p.Query(req, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Query(req, false)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.IDs, want.IDs) {
			t.Fatalf("query %d: follower %v, primary %v", q, got.IDs, want.IDs)
		}
	}

	if _, err := f.Write(&kwsc.WriteRequest{Op: kwsc.OpInsert,
		Point: []float64{0.5, 0.5}, Doc: []kwsc.Keyword{1, 2}}); err != ErrReadOnly {
		t.Fatalf("follower write: %v, want ErrReadOnly", err)
	}

	// The follower's own HTTP surface reports replication health per shard.
	fts := httptest.NewServer(f.Handler())
	defer fts.Close()
	resp, err := http.Get(fts.URL + "/repl/v1/shard/000/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthReply
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.AppliedSeq < seqs[0] {
		t.Fatalf("health applied_seq %d < primary seq %d", h.AppliedSeq, seqs[0])
	}
	// Replication gauges are exported per shard directory.
	snap := obs.Default().Snapshot()
	if got := snap.Gauge(`kwsc_repl_applied_seq{shard="shard-000"}`); uint64(got) < seqs[0] {
		t.Fatalf("applied-seq gauge %d < primary seq %d", got, seqs[0])
	}
}

// fakeLeg is a canned replica leg: /query returns reply and records the
// node_budget it was sent, /health returns health.
type fakeLeg struct {
	*httptest.Server
	nodeBudget atomic.Int64
}

func fakeLegServer(t *testing.T, reply legReply, delay time.Duration) *fakeLeg {
	t.Helper()
	f := new(fakeLeg)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		var req kwsc.QueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("fake leg: %v", err)
		}
		f.nodeBudget.Store(req.NodeBudget)
		if delay > 0 {
			time.Sleep(delay)
		}
		writeJSON(w, http.StatusOK, reply)
	})
	mux.HandleFunc("GET /health", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, healthReply{StalenessMs: reply.StalenessMs})
	})
	f.Server = httptest.NewServer(mux)
	return f
}

// testGroup builds a replica group over a one-shard in-memory writer seeded
// with matching objects, plus the given legs. Probes run once (hour cadence)
// so tests control health fields deterministically.
func testGroup(t *testing.T, legs []*remoteLeg, hedgeAfter time.Duration) (*replicaGroup, []int64) {
	t.Helper()
	ix, err := kwsc.NewDynamicORPKW(2, testK, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for i := 0; i < 5; i++ {
		h, err := ix.Insert(kwsc.Object{
			Point: kwsc.Point{0.1 * float64(i+1), 0.5},
			Doc:   []kwsc.Keyword{1, 2, kwsc.Keyword(10 + i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, h)
	}
	writer := &dynamicShard{id: 0, n: 1, ix: ix, snapCache: snapCache{now: time.Now}}
	g := newReplicaGroup(0, writer, legs, hedgeAfter, time.Hour)
	t.Cleanup(func() { g.close() })
	return g, want
}

func groupCollect(g *replicaGroup, staleness time.Duration) legResult {
	req := &kwsc.QueryRequest{Keywords: []kwsc.Keyword{1, 2},
		MaxStalenessMs: int64(staleness / time.Millisecond)}
	opts := kwsc.QueryOpts{}
	return g.collect(req, req.BoundingRect(2), req.ExactRegion(), req.Keywords, opts, staleness, new(legBuf))
}

// TestReplicaGroupRouting pins the read-routing policy: fresh reads hit the
// writer, bounded reads prefer an admissible replica, dead replicas are
// skipped with a failover, and when the writer is down and only a lagging
// replica survives the group serves its answer flagged stale.
func TestReplicaGroupRouting(t *testing.T) {
	remote := fakeLegServer(t, legReply{IDs: []int64{999}, Outcome: "ok"}, 0)
	defer remote.Close()
	leg := &remoteLeg{
		name: "replica-0", baseURL: remote.URL,
		client:   &http.Client{Timeout: time.Second},
		liveness: time.Hour,
	}
	g, want := testGroup(t, []*remoteLeg{leg}, 0)
	waitFor(t, 2*time.Second, "initial probe", leg.alive)

	t.Run("fresh-read-hits-writer", func(t *testing.T) {
		res := groupCollect(g, 0)
		if res.err != nil || res.replica != "writer" {
			t.Fatalf("fresh read: replica=%q err=%v", res.replica, res.err)
		}
		if !slices.Equal(res.ids, want) {
			t.Fatalf("fresh read ids %v, want %v", res.ids, want)
		}
	})
	t.Run("bounded-read-prefers-replica", func(t *testing.T) {
		res := groupCollect(g, time.Minute)
		if res.err != nil || res.replica != "replica-0" {
			t.Fatalf("bounded read: replica=%q err=%v", res.replica, res.err)
		}
		if !slices.Equal(res.ids, []int64{999}) {
			t.Fatalf("bounded read ids %v, want [999]", res.ids)
		}
	})
	t.Run("dead-replica-fails-over-to-writer", func(t *testing.T) {
		saved := leg.lastOK.Load()
		leg.lastOK.Store(time.Now().Add(-time.Hour).UnixNano())
		defer leg.lastOK.Store(saved)
		before := obs.Default().Snapshot().Counter("kwscd_failovers_total")
		res := groupCollect(g, time.Minute)
		if res.err != nil || res.replica != "writer" {
			t.Fatalf("dead-replica read: replica=%q err=%v", res.replica, res.err)
		}
		after := obs.Default().Snapshot().Counter("kwscd_failovers_total")
		if after <= before {
			t.Fatal("skipping a dead replica did not count a failover")
		}
	})
	t.Run("writer-down-degrades-to-stale-replica", func(t *testing.T) {
		leg.stalenessMs.Store(5_000) // lagging far beyond the 1s bound below
		defer leg.stalenessMs.Store(0)
		core.ArmFailpoint(FPWriterDown, func() { panic("writer down") })
		defer core.DisarmAllFailpoints()
		before := obs.Default().Snapshot()
		res := groupCollect(g, time.Second)
		if res.err != nil {
			t.Fatalf("degraded read failed outright: %v", res.err)
		}
		if res.replica != "replica-0" || !res.stale {
			t.Fatalf("degraded read: replica=%q stale=%v, want stale replica-0", res.replica, res.stale)
		}
		after := obs.Default().Snapshot()
		if d := after.Counter("kwscd_failovers_total") - before.Counter("kwscd_failovers_total"); d < 1 {
			t.Fatalf("failover counter delta %d, want >= 1", d)
		}
		if d := after.Counter("kwscd_stale_served_total") - before.Counter("kwscd_stale_served_total"); d < 1 {
			t.Fatalf("stale-served counter delta %d, want >= 1", d)
		}
	})
	t.Run("writer-down-and-no-replica-errors", func(t *testing.T) {
		saved := leg.lastOK.Load()
		leg.lastOK.Store(time.Now().Add(-time.Hour).UnixNano())
		defer leg.lastOK.Store(saved)
		core.ArmFailpoint(FPWriterDown, func() { panic("writer down") })
		defer core.DisarmAllFailpoints()
		res := groupCollect(g, time.Minute)
		if res.err == nil {
			t.Fatal("every leg down, but collect reported success")
		}
	})
}

// TestReplicaLegForwardsNodeBudget: a replica leg forwards the node budget
// the query runs under, not the request's — the degraded band's clamp must
// bound the follower's traversal too.
func TestReplicaLegForwardsNodeBudget(t *testing.T) {
	remote := fakeLegServer(t, legReply{IDs: []int64{999}, Outcome: "ok"}, 0)
	defer remote.Close()
	leg := &remoteLeg{name: "replica-0", baseURL: remote.URL, client: &http.Client{Timeout: time.Second}}
	req := &kwsc.QueryRequest{Keywords: []kwsc.Keyword{1, 2}, NodeBudget: 5000}
	res := leg.query(req, kwsc.QueryOpts{Policy: kwsc.ExecPolicy{NodeBudget: 64}})
	if res.err != nil {
		t.Fatal(res.err)
	}
	if got := remote.nodeBudget.Load(); got != 64 {
		t.Fatalf("follower received node_budget %d, want the clamped 64", got)
	}
}

// TestHedgedReads: a slow replica leg is hedged to the writer after
// HedgeAfter, so the query returns at writer latency instead of waiting out
// the straggler.
func TestHedgedReads(t *testing.T) {
	remote := fakeLegServer(t, legReply{IDs: []int64{999}, Outcome: "ok"}, 300*time.Millisecond)
	defer remote.Close()
	leg := &remoteLeg{
		name: "replica-0", baseURL: remote.URL,
		client:   &http.Client{Timeout: 2 * time.Second},
		liveness: time.Hour,
	}
	g, want := testGroup(t, []*remoteLeg{leg}, 5*time.Millisecond)
	waitFor(t, 2*time.Second, "initial probe", leg.alive)

	before := obs.Default().Snapshot().Counter("kwscd_hedged_reads_total")
	start := time.Now()
	res := groupCollect(g, time.Minute)
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.replica != "writer" || !slices.Equal(res.ids, want) {
		t.Fatalf("hedged read answered by %q with %v, want writer %v", res.replica, res.ids, want)
	}
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Fatalf("hedged read took %v — waited out the slow replica", el)
	}
	after := obs.Default().Snapshot().Counter("kwscd_hedged_reads_total")
	if after <= before {
		t.Fatal("hedged-read counter did not advance")
	}
}

// TestPrimaryWithReplicaEndToEnd drives the whole deployment through public
// configuration: a durable primary with ReplicaURLs, a real follower server
// on that URL, bounded-staleness reads served by the replica, then the
// replica killed — the primary keeps answering the same reads from the
// writer, counting the failover.
func TestPrimaryWithReplicaEndToEnd(t *testing.T) {
	// Reserve the follower's address first so the primary can be configured
	// with it before the follower (which needs the primary's URL) exists.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	followerURL := fmt.Sprintf("http://%s", ln.Addr())

	objs := genObjects(300, 71)
	p, err := NewDynamic(t.TempDir(), objs, Config{
		Shards: 2, Dim: 2, K: testK,
		ReplicaURLs:  []string{followerURL},
		ReplicaProbe: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	f, err := NewFollower(t.TempDir(), ts.URL, Config{FollowerPoll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fts := httptest.NewUnstartedServer(f.Handler())
	fts.Listener.Close()
	fts.Listener = ln
	fts.Start()
	stopped := false
	defer func() {
		if !stopped {
			fts.Close()
		}
	}()

	seqs := primarySeqs(p)
	waitFor(t, 5*time.Second, "follower catch-up", func() bool { return followerCaughtUp(f, seqs) })
	legs := make([]*remoteLeg, len(p.shards))
	for i, sh := range p.shards {
		legs[i] = sh.(*replicaGroup).legs[0]
	}
	waitFor(t, 5*time.Second, "replica legs alive", func() bool {
		for _, l := range legs {
			if !l.alive() || l.stalenessMs.Load() < 0 {
				return false
			}
		}
		return true
	})

	bounded := &kwsc.QueryRequest{Keywords: []kwsc.Keyword{1, 2}, MaxStalenessMs: 60_000}
	fresh := &kwsc.QueryRequest{Keywords: []kwsc.Keyword{1, 2}}
	want, err := p.Query(fresh, false)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p.Query(bounded, false)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(resp.IDs, want.IDs) {
		t.Fatalf("bounded read %v != fresh read %v", resp.IDs, want.IDs)
	}
	sawReplica := false
	for _, so := range resp.Shards {
		if so.Replica == "replica-0" {
			sawReplica = true
		}
	}
	if !sawReplica {
		t.Fatalf("no shard leg was served by the replica: %+v", resp.Shards)
	}

	// Kill the follower process; the primary must keep answering bounded
	// reads from the writer once the probes declare the legs dead.
	stopped = true
	fts.Close()
	waitFor(t, 5*time.Second, "legs declared dead", func() bool {
		for _, l := range legs {
			if l.alive() {
				return false
			}
		}
		return true
	})
	before := obs.Default().Snapshot().Counter("kwscd_failovers_total")
	resp, err = p.Query(bounded, false)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(resp.IDs, want.IDs) {
		t.Fatalf("post-failover read %v != fresh read %v", resp.IDs, want.IDs)
	}
	for _, so := range resp.Shards {
		if so.Replica != "writer" {
			t.Fatalf("shard %d served by %q with the replica down", so.Shard, so.Replica)
		}
	}
	after := obs.Default().Snapshot().Counter("kwscd_failovers_total")
	if after <= before {
		t.Fatal("replica-down reads did not count failovers")
	}
}
