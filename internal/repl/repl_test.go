package repl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kwsc/internal/codec"
	"kwsc/internal/core"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/invidx"
	"kwsc/internal/obs"
	"kwsc/internal/wal"
)

// collectHandles answers q and ws with no options, returning the handles.
func collectHandles(d *wal.Durable, q *geom.Rect, ws []dataset.Keyword) ([]int64, core.QueryStats, error) {
	var out []int64
	st, err := d.Query(q, ws, core.QueryOpts{}, func(h int64, _ *dataset.Object) { out = append(out, h) })
	return out, st, err
}

// Fault-injection suite for WAL-shipping replication: a follower is killed
// mid-replay, fed truncated and corrupted streams, starved by a stalled
// shipper, and orphaned by a pruning checkpoint — in every case it must serve
// exactly an acked prefix of the primary's history (verified against an
// inverted-index baseline) and converge once the fault clears.
// Run under -race via `make race` / `make crash`.

// replOp is one step of the primary workload; deletes target the op index of
// a still-live insert.
type replOp struct {
	del    bool
	obj    dataset.Object
	target int
}

func replWorkload(seed int64, n int) []replOp {
	r := rand.New(rand.NewSource(seed))
	var ops []replOp
	var liveInserts []int
	for len(ops) < n {
		if len(liveInserts) > 0 && r.Intn(4) == 0 {
			j := r.Intn(len(liveInserts))
			ops = append(ops, replOp{del: true, target: liveInserts[j]})
			liveInserts = append(liveInserts[:j], liveInserts[j+1:]...)
		} else {
			perm := r.Perm(8)
			doc := make([]dataset.Keyword, 2+r.Intn(3))
			for i := range doc {
				doc[i] = dataset.Keyword(perm[i])
			}
			liveInserts = append(liveInserts, len(ops))
			ops = append(ops, replOp{
				obj: dataset.Object{Point: geom.Point{r.Float64(), r.Float64()}, Doc: doc},
			})
		}
	}
	return ops
}

// applyOps runs ops[from:to] against the primary, recording insert handles.
func applyOps(t *testing.T, d *wal.Durable, ops []replOp, from, to int, handles map[int]int64) {
	t.Helper()
	for i := from; i < to; i++ {
		if ops[i].del {
			ok, err := d.Delete(handles[ops[i].target])
			if err != nil || !ok {
				t.Fatalf("op %d: Delete(%d) = %v, %v", i, handles[ops[i].target], ok, err)
			}
		} else {
			h, err := d.Insert(ops[i].obj)
			if err != nil {
				t.Fatalf("op %d: Insert: %v", i, err)
			}
			handles[i] = h
		}
	}
}

// modelAfter replays ops[:n] into the ground-truth handle→object map,
// assigning handles the way DynamicORPKW does (sequentially per insert).
func modelAfter(ops []replOp, n int) map[int64]dataset.Object {
	live := map[int64]dataset.Object{}
	byOp := map[int]int64{}
	var next int64
	for i := 0; i < n; i++ {
		if ops[i].del {
			delete(live, byOp[ops[i].target])
		} else {
			byOp[i] = next
			live[next] = ops[i].obj
			next++
		}
	}
	return live
}

// verifyPrefix checks the follower's view equals the model at exactly n
// applied ops, comparing query answers against an inverted-index baseline.
func verifyPrefix(t *testing.T, f *Follower, ops []replOp, n int) {
	t.Helper()
	d := f.Durable()
	live := modelAfter(ops, n)
	if d.Len() != len(live) {
		t.Fatalf("follower Len = %d, model at %d ops has %d live objects", d.Len(), n, len(live))
	}
	if len(live) == 0 {
		return
	}
	handles := make([]int64, 0, len(live))
	for h := range live {
		handles = append(handles, h)
	}
	sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
	objs := make([]dataset.Object, len(handles))
	for i, h := range handles {
		o := live[h]
		objs[i] = dataset.Object{
			Point: append(geom.Point(nil), o.Point...),
			Doc:   append([]dataset.Keyword(nil), o.Doc...),
		}
	}
	ds, err := dataset.New(objs)
	if err != nil {
		t.Fatalf("baseline dataset: %v", err)
	}
	baseline := invidx.Build(ds)
	rects := []*geom.Rect{
		geom.NewRect([]float64{-1, -1}, []float64{2, 2}),
		geom.NewRect([]float64{0, 0}, []float64{0.5, 0.5}),
		geom.NewRect([]float64{0.3, 0.1}, []float64{0.9, 1}),
	}
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			ws := []dataset.Keyword{dataset.Keyword(a), dataset.Keyword(b)}
			for ri, q := range rects {
				got, _, err := collectHandles(d, q, ws)
				if err != nil {
					t.Fatalf("Collect(%v): %v", ws, err)
				}
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				var want []int64
				for _, id := range baseline.KeywordsOnly(q, ws) {
					want = append(want, handles[id])
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("query (rect %d, ws %v): follower %v, baseline %v", ri, ws, got, want)
				}
			}
		}
	}
}

// newPrimary opens a primary durable index and a shipper HTTP server over its
// directory. The extra wrapper counts checkpoint fetches so tests can prove a
// resumed follower did NOT re-download.
func newPrimary(t *testing.T) (d *wal.Durable, srv *httptest.Server, ckptFetches *atomic.Int64) {
	t.Helper()
	dir := t.TempDir()
	d, err := wal.Open(dir, 2, 2)
	if err != nil {
		t.Fatalf("primary Open: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	ship := &Shipper{Dir: dir, Dim: 2, K: 2, LastSeq: d.Seq}
	ckptFetches = &atomic.Int64{}
	h := ship.Handler()
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/checkpoint") {
			ckptFetches.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return d, srv, ckptFetches
}

func followerCfg(t *testing.T, primaryURL string) FollowerConfig {
	t.Helper()
	return FollowerConfig{
		Dir:          filepath.Join(t.TempDir(), "follower"),
		Primary:      primaryURL,
		Dim:          2,
		K:            2,
		PollInterval: 2 * time.Millisecond,
	}
}

// pollUntil drives Poll until the follower reaches seq want (or the deadline).
func pollUntil(t *testing.T, f *Follower, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.AppliedSeq() < want {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, want %d (lastErr=%q)", f.AppliedSeq(), want, f.LastErr())
		}
		if _, err := f.Poll(); err != nil {
			t.Fatalf("Poll at seq %d: %v", f.AppliedSeq(), err)
		}
	}
}

func TestFollowerCatchUpEquality(t *testing.T) {
	prim, srv, _ := newPrimary(t)
	ops := replWorkload(11, 80)
	handles := map[int]int64{}
	applyOps(t, prim, ops, 0, 40, handles)
	if err := prim.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	applyOps(t, prim, ops, 40, 80, handles)

	before := obs.Default().Snapshot()
	cfg := followerCfg(t, srv.URL)
	f, err := OpenFollower(cfg)
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer f.Close()
	// Bootstrap landed the checkpoint: local state starts at its seq, not 0.
	if got := f.AppliedSeq(); got != 40 {
		t.Fatalf("bootstrapped AppliedSeq = %d, want checkpoint seq 40", got)
	}
	pollUntil(t, f, 80)
	verifyPrefix(t, f, ops, 80)

	// The local state is sealed: direct writes are refused (they would
	// silently diverge the replica), while replay keeps flowing.
	if _, err := f.Durable().Insert(ops[0].obj); !errors.Is(err, wal.ErrReadOnly) {
		t.Fatalf("direct Insert on sealed replica: err = %v, want wal.ErrReadOnly", err)
	}
	if _, err := f.Durable().Delete(1); !errors.Is(err, wal.ErrReadOnly) {
		t.Fatalf("direct Delete on sealed replica: err = %v, want wal.ErrReadOnly", err)
	}
	verifyPrefix(t, f, ops, 80)

	if f.PrimarySeq() != 80 {
		t.Errorf("PrimarySeq = %d, want 80", f.PrimarySeq())
	}
	if s := f.Staleness(); s < 0 || s > 10*time.Second {
		t.Errorf("caught-up follower reports staleness %v", s)
	}
	after := obs.Default().Snapshot()
	gauge := `kwsc_repl_applied_seq{shard="` + filepath.Base(cfg.Dir) + `"}`
	if got := after.Gauge(gauge); got != 80 {
		t.Errorf("%s = %d, want 80", gauge, got)
	}
	if d := after.Counter("kwsc_repl_frames_applied_total") - before.Counter("kwsc_repl_frames_applied_total"); d != 40 {
		t.Errorf("frames_applied delta = %d, want 40 (tail after checkpoint)", d)
	}
	if d := after.Counter("kwsc_repl_bootstraps_total") - before.Counter("kwsc_repl_bootstraps_total"); d != 1 {
		t.Errorf("bootstraps delta = %d, want 1", d)
	}
	if d := after.Histogram("kwsc_repl_lag_seq").Count - before.Histogram("kwsc_repl_lag_seq").Count; d < 1 {
		t.Errorf("lag histogram recorded no observations")
	}
	if d := after.Counter("kwsc_repl_ship_bytes_total") - before.Counter("kwsc_repl_ship_bytes_total"); d <= 0 {
		t.Errorf("ship_bytes delta = %d, want > 0", d)
	}
	// One tail request carried the 40 records past the checkpoint.
	if d := after.Counter("kwsc_repl_ship_requests_total") - before.Counter("kwsc_repl_ship_requests_total"); d != 1 {
		t.Errorf("ship_requests delta = %d, want 1", d)
	}
}

// TestFollowerKilledMidReplayResumes kills the follower (panic at the apply
// failpoint) partway through the tail, reopens the same directory, and proves
// it resumes from its last applied seq — no checkpoint re-download — and
// converges to full equality.
func TestFollowerKilledMidReplayResumes(t *testing.T) {
	prim, srv, ckptFetches := newPrimary(t)
	ops := replWorkload(23, 90)
	handles := map[int]int64{}
	applyOps(t, prim, ops, 0, 30, handles)
	if err := prim.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	applyOps(t, prim, ops, 30, 90, handles)

	cfg := followerCfg(t, srv.URL)
	f, err := OpenFollower(cfg)
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	fetchesAfterSeed := ckptFetches.Load()

	// Kill mid-replay: the 10th applied record panics mid-Poll, leaving the
	// follower dead between records like a SIGKILL would.
	hits := 0
	core.ArmFailpoint(wal.FPReplay, func() {
		hits++
		if hits == 10 {
			panic("follower killed mid-replay")
		}
	})
	t.Cleanup(core.DisarmAllFailpoints)
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("expected the armed failpoint to kill the Poll")
			}
		}()
		for {
			if _, err := f.Poll(); err != nil {
				t.Errorf("Poll before kill: %v", err)
				return
			}
		}
	}()
	core.DisarmAllFailpoints()
	killedAt := f.AppliedSeq()
	if killedAt < 30+9 || killedAt >= 90 {
		t.Fatalf("kill landed at seq %d, want mid-replay in [39, 90)", killedAt)
	}
	// Abandon the dead instance without closing it — its WAL handle stays
	// open, exactly like a killed process — and reopen the directory.
	f2, err := OpenFollower(cfg)
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer f2.Close()
	if got := f2.AppliedSeq(); got != killedAt {
		t.Fatalf("resumed AppliedSeq = %d, want last applied %d", got, killedAt)
	}
	if got := ckptFetches.Load(); got != fetchesAfterSeed {
		t.Fatalf("resume re-downloaded the checkpoint (%d fetches, want %d)", got, fetchesAfterSeed)
	}
	if f2.Bootstraps() != 0 {
		t.Fatalf("resumed follower counted %d bootstraps, want 0", f2.Bootstraps())
	}
	pollUntil(t, f2, 90)
	verifyPrefix(t, f2, ops, 90)
}

// mutateProxy forwards shipping requests upstream, rewriting the successful
// response bodies of the endpoint (/wal or /checkpoint) through mutate.
// Headers are preserved so only the byte stream lies.
func mutateProxy(t *testing.T, upstream, endpoint string, mutate func([]byte) []byte) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(upstream + r.URL.Path + "?" + r.URL.RawQuery)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if strings.HasSuffix(r.URL.Path, endpoint) && resp.StatusCode == http.StatusOK {
			body = mutate(body)
		}
		for _, hdr := range []string{HdrSeq, HdrLastSeq, HdrShippedTo, "Content-Type"} {
			if v := resp.Header.Get(hdr); v != "" {
				w.Header().Set(hdr, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestTruncatedStreamTornRetry ships every tail batch cut off mid-frame; the
// follower must treat the torn frame as retriable, keep the applied prefix,
// and still converge by re-requesting.
func TestTruncatedStreamTornRetry(t *testing.T) {
	prim, srv, _ := newPrimary(t)
	ops := replWorkload(31, 60)
	handles := map[int]int64{}
	applyOps(t, prim, ops, 0, 60, handles)

	proxy := mutateProxy(t, srv.URL, "/wal", func(body []byte) []byte {
		if len(body) > 64 {
			return body[:64] // almost always mid-frame
		}
		return body
	})
	before := obs.Default().Snapshot()
	f, err := OpenFollower(followerCfg(t, proxy.URL))
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer f.Close()
	pollUntil(t, f, 60)
	verifyPrefix(t, f, ops, 60)
	after := obs.Default().Snapshot()
	if d := after.Counter("kwsc_repl_torn_retries_total") - before.Counter("kwsc_repl_torn_retries_total"); d < 1 {
		t.Errorf("torn_retries delta = %d, want >= 1", d)
	}
}

// TestCorruptedStreamRefused flips a byte inside a shipped frame: the
// follower must apply the clean prefix, refuse the rest with ErrCorrupt, and
// never advance past the corruption.
func TestCorruptedStreamRefused(t *testing.T) {
	prim, srv, _ := newPrimary(t)
	ops := replWorkload(47, 40)
	handles := map[int]int64{}
	applyOps(t, prim, ops, 0, 40, handles)

	proxy := mutateProxy(t, srv.URL, "/wal", func(body []byte) []byte {
		if len(body) < 16 {
			return body
		}
		b := append([]byte(nil), body...)
		b[len(b)-5] ^= 0xFF // payload byte of the last frame
		return b
	})
	before := obs.Default().Snapshot()
	f, err := OpenFollower(followerCfg(t, proxy.URL))
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer f.Close()
	n, err := f.Poll()
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Poll over corrupted stream: applied %d, err = %v, want ErrCorrupt", n, err)
	}
	applied := f.AppliedSeq()
	if applied >= 40 {
		t.Fatalf("follower applied %d ops through a corrupted stream", applied)
	}
	// The acked prefix it did apply is still a correct prefix.
	verifyPrefix(t, f, ops, int(applied))
	after := obs.Default().Snapshot()
	if d := after.Counter("kwsc_repl_crc_refusals_total") - before.Counter("kwsc_repl_crc_refusals_total"); d < 1 {
		t.Errorf("crc_refusals delta = %d, want >= 1", d)
	}
}

// TestStalledShipperBackoffRecovers starves the follower behind a shipper
// that hangs past the client timeout, then unstalls it; the running tail loop
// must retry with backoff and converge on its own.
func TestStalledShipperBackoffRecovers(t *testing.T) {
	prim, srv, _ := newPrimary(t)
	ops := replWorkload(59, 50)
	handles := map[int]int64{}
	applyOps(t, prim, ops, 0, 50, handles)

	var stalled atomic.Bool
	stalled.Store(true)
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stalled.Load() && strings.HasSuffix(r.URL.Path, "/wal") {
			time.Sleep(250 * time.Millisecond) // past the client timeout
		}
		resp, err := http.Get(srv.URL + r.URL.Path + "?" + r.URL.RawQuery)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for _, hdr := range []string{HdrSeq, HdrLastSeq, HdrShippedTo, "Content-Type"} {
			if v := resp.Header.Get(hdr); v != "" {
				w.Header().Set(hdr, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(gate.Close)

	before := obs.Default().Snapshot()
	cfg := followerCfg(t, gate.URL)
	cfg.Client = &http.Client{Timeout: 30 * time.Millisecond}
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	defer f.Close()

	// Let it fail against the stall at least once, then clear the fault.
	deadline := time.Now().Add(10 * time.Second)
	for obs.Default().Snapshot().Counter("kwsc_repl_retries_total") == before.Counter("kwsc_repl_retries_total") {
		if time.Now().After(deadline) {
			t.Fatal("stalled shipper never produced a retry")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stalled.Store(false)
	for f.AppliedSeq() < 50 {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d after unstall (lastErr=%q)", f.AppliedSeq(), f.LastErr())
		}
		time.Sleep(5 * time.Millisecond)
	}
	verifyPrefix(t, f, ops, 50)
}

// TestPrunedTailReseeds lets the primary checkpoint past an offline
// follower's position; on reconnect the 410 must trigger a checkpoint
// re-download and the follower must land exactly on the primary's history.
func TestPrunedTailReseeds(t *testing.T) {
	prim, srv, _ := newPrimary(t)
	ops := replWorkload(73, 70)
	handles := map[int]int64{}
	applyOps(t, prim, ops, 0, 20, handles)

	cfg := followerCfg(t, srv.URL)
	f, err := OpenFollower(cfg)
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	pollUntil(t, f, 20)
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// While the follower is offline: more writes, then a checkpoint that
	// prunes every segment the follower would need, then a fresh tail.
	applyOps(t, prim, ops, 20, 60, handles)
	if err := prim.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	applyOps(t, prim, ops, 60, 70, handles)

	f2, err := OpenFollower(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer f2.Close()
	if got := f2.AppliedSeq(); got != 20 {
		t.Fatalf("reopened AppliedSeq = %d, want 20", got)
	}
	pollUntil(t, f2, 70)
	verifyPrefix(t, f2, ops, 70)
	if f2.Bootstraps() != 1 {
		t.Errorf("Bootstraps = %d, want exactly 1 reseed", f2.Bootstraps())
	}
}

// TestFailedReseedKeepsPrefix lets the primary checkpoint past a running
// follower at seq 20 while its /checkpoint answers 503: the reseed's download
// fails, and the follower must keep its state open, at seq 20, answering the
// acked prefix. Once the download succeeds the next poll reseeds and the
// follower catches up.
func TestFailedReseedKeepsPrefix(t *testing.T) {
	prim, srv, _ := newPrimary(t)
	ops := replWorkload(79, 70)
	handles := map[int]int64{}
	applyOps(t, prim, ops, 0, 20, handles)
	upstream, err := url.Parse(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	forward := httputil.NewSingleHostReverseProxy(upstream)
	var refuse atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if refuse.Load() && strings.HasSuffix(r.URL.Path, "/checkpoint") {
			http.Error(w, "checkpoint unavailable", http.StatusServiceUnavailable)
			return
		}
		forward.ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)

	f, err := OpenFollower(followerCfg(t, proxy.URL))
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer f.Close()
	pollUntil(t, f, 20)

	applyOps(t, prim, ops, 20, 60, handles)
	if err := prim.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	applyOps(t, prim, ops, 60, 70, handles)

	refuse.Store(true)
	if _, err := f.Poll(); err == nil || !strings.Contains(err.Error(), "status 503") {
		t.Fatalf("Poll with the checkpoint unavailable: err %v, want the 503", err)
	}
	if f.Durable() == nil {
		t.Fatal("a failed reseed left the follower with no state")
	}
	if got := f.AppliedSeq(); got != 20 {
		t.Fatalf("AppliedSeq after a failed reseed = %d, want 20", got)
	}
	verifyPrefix(t, f, ops, 20)

	refuse.Store(false)
	pollUntil(t, f, 70)
	verifyPrefix(t, f, ops, 70)
	if f.Bootstraps() != 3 {
		t.Errorf("Bootstraps = %d, want 3 (the seed, the failed reseed, the reseed)", f.Bootstraps())
	}
}

// TestCorruptCheckpointRefusedOnBootstrap flips a byte in the shipped
// checkpoint; the follower must refuse to seed from it.
func TestCorruptCheckpointRefusedOnBootstrap(t *testing.T) {
	checkpointRefusedOnBootstrap(t, "checksum mismatch", func(body []byte) []byte {
		if len(body) > 4200 {
			body[4200] ^= 0xFF // inside a data page: page CRC must catch it
		}
		return body
	})
}

// TestLyingCheckpointRefusedBeforeItLands ships a checkpoint re-sealed under
// fresh checksums whose entry -> rank column is not a permutation: every
// page verifies, only the structure lies. The follower must refuse it before
// the rename, so no checkpoint recovery would consider ever lands in its
// directory.
func TestLyingCheckpointRefusedBeforeItLands(t *testing.T) {
	for _, c := range []struct {
		name, reason string
		sec          uint32
		lie          func(data []byte)
	}{
		// Entry 1 takes entry 0's rank.
		{"entry-rank", "not a permutation", codec.SecEntryRank, func(data []byte) { copy(data[4:], data[:4]) }},
		// Rows 0 and 1 trade handles: every page checks out and every box
		// holds its points, but each row names the other's entry.
		{"row-handles-swapped", "holds handle", codec.SecRowHandles, func(data []byte) {
			var row [8]byte
			copy(row[:], data[:8])
			copy(data[:8], data[8:16])
			copy(data[8:16], row[:])
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkpointRefusedOnBootstrap(t, c.reason, func(body []byte) []byte {
				return rewriteSection(t, body, c.sec, c.lie)
			})
		})
	}
}

// rewriteSection re-frames a checkpoint with section sec passed through lie.
func rewriteSection(t *testing.T, body []byte, sec uint32, lie func([]byte)) []byte {
	t.Helper()
	c, err := codec.ParseContainer(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		t.Fatal(err)
	}
	var secs []codec.Section
	for _, s := range c.Sections[1:] {
		data, err := c.SectionBytes(bytes.NewReader(body), s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if s.ID == sec {
			lie(data)
		}
		secs = append(secs, codec.Section{ID: s.ID, Data: data})
	}
	var out bytes.Buffer
	if err := codec.WriteContainer(&out, c.Meta, secs); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// checkpointRefusedOnBootstrap bootstraps a follower from a primary's
// checkpoint rewritten by damage in transit: OpenFollower must fail with a
// refusal naming reason, and leave no checkpoint in the follower's
// directory.
func checkpointRefusedOnBootstrap(t *testing.T, reason string, damage func([]byte) []byte) {
	t.Helper()
	prim, srv, _ := newPrimary(t)
	ops := replWorkload(89, 30)
	handles := map[int]int64{}
	applyOps(t, prim, ops, 0, 30, handles)
	if err := prim.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	proxy := mutateProxy(t, srv.URL, "/checkpoint", damage)
	cfg := followerCfg(t, proxy.URL)
	if _, err := OpenFollower(cfg); err == nil || !strings.Contains(err.Error(), "refused") || !strings.Contains(err.Error(), reason) {
		t.Fatalf("OpenFollower over a damaged checkpoint: err = %v, want a refusal naming %q", err, reason)
	}
	// The refused download must not have left a checkpoint recovery would eat.
	if landed, _ := filepath.Glob(filepath.Join(cfg.Dir, "checkpoint-*.ckpt")); len(landed) > 0 {
		t.Fatalf("refused checkpoint left behind as %v", landed)
	}
}

// TestShipperNeverShipsUnacked holds the shipper's advertised LastSeq below
// what is physically on disk; frames past it must not leave the primary.
func TestShipperNeverShipsUnacked(t *testing.T) {
	dir := t.TempDir()
	prim, err := wal.Open(dir, 2, 2)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer prim.Close()
	ops := replWorkload(97, 30)
	handles := map[int]int64{}
	applyOps(t, prim, ops, 0, 30, handles)

	// Advertise only 20 acked ops even though 30 frames are on disk —
	// exactly the window where an op is logged but its fsync has not been
	// acknowledged.
	ship := &Shipper{Dir: dir, Dim: 2, K: 2, LastSeq: func() uint64 { return 20 }}
	srv := httptest.NewServer(ship.Handler())
	t.Cleanup(srv.Close)

	f, err := OpenFollower(followerCfg(t, srv.URL))
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer f.Close()
	pollUntil(t, f, 20)
	for i := 0; i < 3; i++ {
		if _, err := f.Poll(); err != nil {
			t.Fatalf("Poll: %v", err)
		}
	}
	if got := f.AppliedSeq(); got != 20 {
		t.Fatalf("follower applied %d ops, but only 20 were acked", got)
	}
	verifyPrefix(t, f, ops, 20)
}
