package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"kwsc"
	"kwsc/internal/geom"
	"kwsc/internal/obs"
	"kwsc/internal/workload"
)

const testK = 2

// genObjects produces a deterministic synthetic corpus.
func genObjects(n int, seed int64) []kwsc.Object {
	return objectsOf(workload.Gen(workload.Config{Seed: seed, Objects: n, Dim: 2, Vocab: 60, DocLen: 6}))
}

func objectsOf(ds *kwsc.Dataset) []kwsc.Object {
	objs := make([]kwsc.Object, ds.Len())
	for i := range objs {
		objs[i] = *ds.Object(int32(i))
	}
	return objs
}

// brute returns the ground-truth global ids for a query over the corpus.
func brute(objs []kwsc.Object, region kwsc.Region, ws []kwsc.Keyword) []int64 {
	var out []int64
	for i, o := range objs {
		if region != nil && !region.ContainsPoint(o.Point) {
			continue
		}
		set := make(map[kwsc.Keyword]bool, len(o.Doc))
		for _, w := range o.Doc {
			set[w] = true
		}
		ok := true
		for _, w := range ws {
			if !set[w] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, int64(i))
		}
	}
	return out
}

func randQuery(rng *rand.Rand) *kwsc.QueryRequest {
	req := &kwsc.QueryRequest{Keywords: workload.RandKeywords(rng, 60, testK)}
	switch rng.Intn(3) {
	case 0: // rect
		r := workload.RandRect(rng, 2, 0.2+rng.Float64()*0.6)
		req.Rect = &kwsc.RectWire{Lo: r.Lo, Hi: r.Hi}
	case 1: // sphere
		req.Sphere = &kwsc.SphereWire{
			Center: []float64{rng.Float64(), rng.Float64()},
			Radius: 0.1 + rng.Float64()*0.4,
		}
	}
	return req
}

func regionOf(req *kwsc.QueryRequest) kwsc.Region {
	switch {
	case req.Rect != nil:
		return geom.NewRect(req.Rect.Lo, req.Rect.Hi)
	case req.Sphere != nil:
		return geom.NewSphere(kwsc.Point(req.Sphere.Center), req.Sphere.Radius)
	}
	return nil
}

// TestStaticShardedEqualsUnsharded is the core property: a partitioned
// deployment answers every query with exactly the ids an unsharded scan
// produces, under both partitioning schemes and several shard counts.
func TestStaticShardedEqualsUnsharded(t *testing.T) {
	objs := genObjects(1500, 11)
	for _, mode := range []PartitionMode{PartitionHash, PartitionRange} {
		for _, shards := range []int{1, 3, 4} {
			t.Run(fmt.Sprintf("%v-%d", mode, shards), func(t *testing.T) {
				s, err := NewStatic(objs, Config{Shards: shards, Partition: mode, K: testK})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				rng := rand.New(rand.NewSource(int64(shards) * 97))
				for q := 0; q < 40; q++ {
					req := randQuery(rng)
					resp, err := s.Query(req, false)
					if err != nil {
						t.Fatalf("query %d: %v", q, err)
					}
					want := brute(objs, regionOf(req), req.Keywords)
					if !slices.Equal(resp.IDs, want) && !(len(resp.IDs) == 0 && len(want) == 0) {
						t.Fatalf("query %d (%+v): got %v, want %v", q, req, resp.IDs, want)
					}
					if resp.Count != len(resp.IDs) {
						t.Fatalf("count %d != len(ids) %d", resp.Count, len(resp.IDs))
					}
					if len(resp.Shards) != shards {
						t.Fatalf("got %d shard outcomes, want %d", len(resp.Shards), shards)
					}
				}
			})
		}
	}
}

// TestStaticShardErrorsJoinedInOrder: the shards build concurrently, and
// when two fail NewStatic returns both errors, the lower shard's first.
func TestStaticShardErrorsJoinedInOrder(t *testing.T) {
	objs := genObjects(400, 12)
	// Range partitioning routes by x: an empty document at each end of the
	// x order fails the first and the last shard's dataset.
	lo, hi := 0, 0
	for i, o := range objs {
		if o.Point[0] < objs[lo].Point[0] {
			lo = i
		}
		if o.Point[0] > objs[hi].Point[0] {
			hi = i
		}
	}
	objs[lo].Doc, objs[hi].Doc = nil, nil
	for range 5 {
		_, err := NewStatic(objs, Config{Shards: 4, Partition: PartitionRange, K: testK})
		if err == nil {
			t.Fatal("a corpus with empty documents built")
		}
		msg := err.Error()
		first, last := strings.Index(msg, "shard 0 "), strings.Index(msg, "shard 3 ")
		if first < 0 || last < first || strings.Count(msg, "serve: shard") != 2 {
			t.Fatalf("want shard 0's error, then shard 3's, got %q", msg)
		}
	}
}

// TestStaticLimitPrefix checks the limit cut returns the limit smallest
// matching ids — a prefix of the full sorted answer.
func TestStaticLimitPrefix(t *testing.T) {
	objs := genObjects(1200, 13)
	s, err := NewStatic(objs, Config{Shards: 3, K: testK})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 25; q++ {
		req := randQuery(rng)
		full := brute(objs, regionOf(req), req.Keywords)
		if len(full) < 2 {
			continue
		}
		req.Limit = 1 + rng.Intn(len(full))
		resp, err := s.Query(req, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.IDs) > req.Limit {
			t.Fatalf("limit %d, got %d ids", req.Limit, len(resp.IDs))
		}
		// Every returned id must match, sorted ascending; ids beyond the
		// limit may be dropped but nothing non-matching may appear.
		if !slices.IsSorted(resp.IDs) {
			t.Fatalf("ids not sorted: %v", resp.IDs)
		}
		for _, id := range resp.IDs {
			if !slices.Contains(full, id) {
				t.Fatalf("id %d not in true answer %v", id, full)
			}
		}
		if len(full) > req.Limit && !resp.Truncated {
			t.Fatalf("limit cut %d < %d results but Truncated unset", req.Limit, len(full))
		}
	}
}

// TestSphereLimitCountsOnlyExactMatches: a sphere leg runs its index on the
// bounding box and drops the hits outside the ball, so the index must not
// spend the limit on those hits. 200 box-only matches precede the one true
// match in every index order; a limited query must still find it.
func TestSphereLimitCountsOnlyExactMatches(t *testing.T) {
	objs := make([]kwsc.Object, 0, 201)
	for i := 0; i < 200; i++ {
		c := 0.8 + 0.001*float64(i)
		objs = append(objs, kwsc.Object{Point: kwsc.Point{c, c}, Doc: []kwsc.Keyword{1, 2}})
	}
	objs = append(objs, kwsc.Object{Point: kwsc.Point{0, 0}, Doc: []kwsc.Keyword{1, 2}})
	cfg := Config{Shards: 1, Dim: 2, K: 2}
	static, err := NewStatic(objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer static.Close()
	dynamic, err := NewDynamic("", objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dynamic.Close()
	for _, c := range []struct {
		name string
		s    *Server
	}{{"static", static}, {"dynamic", dynamic}} {
		for _, limit := range []int{1, 5} {
			t.Run(fmt.Sprintf("%s/limit=%d", c.name, limit), func(t *testing.T) {
				req := &kwsc.QueryRequest{
					Sphere:   &kwsc.SphereWire{Center: []float64{0, 0}, Radius: 1},
					Keywords: []kwsc.Keyword{1, 2},
					Limit:    limit,
				}
				resp, err := c.s.Query(req, false)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(resp.IDs, []int64{200}) || resp.Truncated {
					t.Fatalf("ids %v truncated %v, want [200] truncated false", resp.IDs, resp.Truncated)
				}
			})
		}
	}
}

// TestDynamicShardedEqualsUnsharded routes inserts and deletes through the
// write path, then checks sharded queries return exactly the live matching
// objects (by handle identity).
func TestDynamicShardedEqualsUnsharded(t *testing.T) {
	objs := genObjects(900, 17)
	for _, mode := range []PartitionMode{PartitionHash, PartitionRange} {
		t.Run(mode.String(), func(t *testing.T) {
			s, err := NewDynamic("", nil, Config{Shards: 3, Partition: mode, Dim: 2, K: testK})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			handleOf := make(map[int64]int) // global handle -> object index
			live := make(map[int]bool)
			for i, o := range objs {
				resp, err := s.Write(&kwsc.WriteRequest{Op: kwsc.OpInsert, Point: o.Point, Doc: o.Doc})
				if err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
				handleOf[resp.Handle] = i
				live[i] = true
			}
			// Delete a third of them through the routed write path.
			rng := rand.New(rand.NewSource(23))
			for h, i := range handleOf {
				if !live[i] || rng.Intn(3) != 0 {
					continue
				}
				resp, err := s.Write(&kwsc.WriteRequest{Op: kwsc.OpDelete, Handle: h})
				if err != nil {
					t.Fatalf("delete %d: %v", h, err)
				}
				if !resp.Deleted {
					t.Fatalf("delete %d: handle not found", h)
				}
				live[i] = false
			}

			for q := 0; q < 30; q++ {
				req := randQuery(rng)
				resp, err := s.Query(req, false)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]int, 0, len(resp.IDs))
				for _, h := range resp.IDs {
					i, ok := handleOf[h]
					if !ok {
						t.Fatalf("query returned unknown handle %d", h)
					}
					got = append(got, i)
				}
				slices.Sort(got)
				var want []int
				for _, id := range brute(objs, regionOf(req), req.Keywords) {
					if live[int(id)] {
						want = append(want, int(id))
					}
				}
				if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Fatalf("query %d: got objects %v, want %v", q, got, want)
				}
			}
		})
	}
}

// TestBudgetStopPrefixCorrect: a node-budget stop on a dynamic deployment
// (no fallback path) must yield a subset of the true answer with Truncated
// set — prefix-correct unions under per-shard policy stops.
func TestBudgetStopPrefixCorrect(t *testing.T) {
	objs := genObjects(1500, 29)
	s, err := NewDynamic("", objs, Config{Shards: 3, Dim: 2, K: testK})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Seed loading used routed inserts; handles encode positions per shard,
	// so map handles back through a full-universe query first.
	rng := rand.New(rand.NewSource(31))
	sawStop := false
	for q := 0; q < 40; q++ {
		req := randQuery(rng)
		full, err := s.Query(req, false)
		if err != nil {
			t.Fatal(err)
		}
		req.NodeBudget = 1 + int64(rng.Intn(16))
		part, err := s.Query(req, false)
		if err != nil {
			t.Fatal(err)
		}
		fullSet := make(map[int64]bool, len(full.IDs))
		for _, id := range full.IDs {
			fullSet[id] = true
		}
		for _, id := range part.IDs {
			if !fullSet[id] {
				t.Fatalf("budget-stopped query returned id %d outside the true answer", id)
			}
		}
		stopped := false
		for _, so := range part.Shards {
			if so.Outcome == "budget" {
				stopped = true
			} else if so.Outcome != "ok" {
				t.Fatalf("unexpected outcome %q", so.Outcome)
			}
		}
		if stopped {
			sawStop = true
			if !part.Truncated {
				t.Fatal("budget stop without Truncated")
			}
		} else if !slices.Equal(part.IDs, full.IDs) {
			t.Fatal("no stop but results differ")
		}
	}
	if !sawStop {
		t.Fatal("workload never tripped the node budget; test is vacuous")
	}
}

// TestDegradedModeStaysCorrect: the degraded band means one thing on every
// shard kind — the clamped node budget, then the prefix collected so far,
// outcome "budget". Every id a degraded query returns is in the unbudgeted
// answer, the response is Truncated exactly when some shard stopped, and no
// shard falls back to a keywords-only scan.
func TestDegradedModeStaysCorrect(t *testing.T) {
	objs := genObjects(1200, 37)
	cfg := Config{Shards: 3, K: testK, DegradedNodeBudget: 4}
	static, err := NewStatic(objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer static.Close()
	dynamic, err := NewDynamic("", objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dynamic.Close()
	fallbacks := obs.Default().Snapshot().Counter("kwsc_fallbacks_total")
	for _, c := range []struct {
		name string
		s    *Server
	}{{"static", static}, {"dynamic", dynamic}} {
		rng := rand.New(rand.NewSource(41))
		stops := 0
		for q := 0; q < 30; q++ {
			req := randQuery(rng)
			full, err := c.s.Query(req, false)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := c.s.Query(req, true) // degraded admission band
			if err != nil {
				t.Fatal(err)
			}
			if !resp.Degraded || full.Degraded {
				t.Fatalf("%s query %d: Degraded %v admitted degraded, %v admitted in full", c.name, q, resp.Degraded, full.Degraded)
			}
			for _, id := range resp.IDs {
				if _, ok := slices.BinarySearch(full.IDs, id); !ok {
					t.Fatalf("%s query %d: degraded answer holds %d, outside the full answer", c.name, q, id)
				}
			}
			stopped := false
			for _, so := range resp.Shards {
				if so.FellBack || (so.Outcome != "ok" && so.Outcome != "budget") {
					t.Fatalf("%s query %d: shard %+v", c.name, q, so)
				}
				if so.Outcome == "budget" {
					stopped = true
					stops++
				}
			}
			if resp.Truncated != stopped {
				t.Fatalf("%s query %d: Truncated %v with a budget stop %v", c.name, q, resp.Truncated, stopped)
			}
			if !stopped && !slices.Equal(resp.IDs, full.IDs) {
				t.Fatalf("%s query %d: no stop but %d ids, want %d", c.name, q, len(resp.IDs), len(full.IDs))
			}
		}
		if stops == 0 {
			t.Fatalf("%s: the degraded budget never stopped a shard; test is vacuous", c.name)
		}
	}
	if got := obs.Default().Snapshot().Counter("kwsc_fallbacks_total"); got != fallbacks {
		t.Fatalf("kwsc_fallbacks_total moved %d -> %d", fallbacks, got)
	}
}

// TestDurableShardsRecover: a durable sharded deployment recovers every
// shard's WAL on reopen, keeps handles stable, and routes deletes to the
// same shard after restart.
func TestDurableShardsRecover(t *testing.T) {
	dir := t.TempDir()
	objs := genObjects(400, 43)
	cfg := Config{Shards: 2, Dim: 2, K: testK}

	s, err := NewDynamic(dir, objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := s.Write(&kwsc.WriteRequest{Op: kwsc.OpInsert,
		Point: []float64{0.5, 0.5}, Doc: []kwsc.Keyword{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	req := &kwsc.QueryRequest{Keywords: []kwsc.Keyword{1, 2}}
	before, err := s.Query(req, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: seed must NOT be double-loaded (shards are non-empty).
	s2, err := NewDynamic(dir, objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, want := s2.Live(), len(objs)+1; got != want {
		t.Fatalf("live after recovery = %d, want %d", got, want)
	}
	after, err := s2.Query(req, false)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(before.IDs, after.IDs) {
		t.Fatalf("results changed across restart: %v vs %v", before.IDs, after.IDs)
	}
	// The pre-restart handle still routes to its owning shard.
	del, err := s2.Write(&kwsc.WriteRequest{Op: kwsc.OpDelete, Handle: extra.Handle})
	if err != nil {
		t.Fatal(err)
	}
	if !del.Deleted || del.Shard != extra.Shard {
		t.Fatalf("post-restart delete: %+v (inserted on shard %d)", del, extra.Shard)
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestHTTPEndpoints(t *testing.T) {
	objs := genObjects(600, 47)
	s, err := NewStatic(objs, Config{Shards: 2, K: testK})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	before := obs.Default().Snapshot()

	t.Run("query-ok", func(t *testing.T) {
		req := &kwsc.QueryRequest{Keywords: []kwsc.Keyword{1, 2}}
		resp, body := postJSON(t, ts.URL+kwsc.PathQuery, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var qr kwsc.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		want := brute(objs, nil, []kwsc.Keyword{1, 2})
		if !slices.Equal(qr.IDs, want) && !(len(qr.IDs) == 0 && len(want) == 0) {
			t.Fatalf("got %v, want %v", qr.IDs, want)
		}
	})
	t.Run("malformed-json", func(t *testing.T) {
		resp, body := postRaw(t, ts.URL+kwsc.PathQuery, `{"keywords": [1, 2`)
		assertError(t, resp, body, http.StatusBadRequest, kwsc.CodeInvalid)
	})
	t.Run("unknown-field", func(t *testing.T) {
		resp, body := postRaw(t, ts.URL+kwsc.PathQuery, `{"keywords": [1, 2], "nope": true}`)
		assertError(t, resp, body, http.StatusBadRequest, kwsc.CodeInvalid)
	})
	t.Run("wrong-arity", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+kwsc.PathQuery, &kwsc.QueryRequest{Keywords: []kwsc.Keyword{1, 2, 3}})
		assertError(t, resp, body, http.StatusBadRequest, kwsc.CodeInvalid)
	})
	t.Run("write-static", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+kwsc.PathWrite, &kwsc.WriteRequest{
			Op: kwsc.OpInsert, Point: []float64{0.1, 0.2}, Doc: []kwsc.Keyword{1, 2}})
		assertError(t, resp, body, http.StatusBadRequest, kwsc.CodeUnsupported)
	})
	t.Run("healthz", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
			t.Fatalf("healthz: %d %q", resp.StatusCode, body)
		}
	})
	t.Run("metrics", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "kwscd_") {
			t.Fatalf("metrics missing kwscd_ series: %d\n%s", resp.StatusCode, body)
		}
	})
	t.Run("debug-stats", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/debug/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		if stats["mode"] != "static" || stats["shards"] != float64(2) {
			t.Fatalf("stats: %v", stats)
		}
	})
	// Registry delta of the subtests above: every counted request lands on
	// exactly its (endpoint, status) series; a status outside the resolved
	// table is still counted.
	t.Run("request-counters", func(t *testing.T) {
		queryRequests.count(http.StatusTeapot)
		after := obs.Default().Snapshot()
		for series, want := range map[string]int64{
			`endpoint="query",status="200"`:      1,
			`endpoint="query",status="400"`:      3,
			`endpoint="query",status="418"`:      1,
			`endpoint="query",status="429"`:      0,
			`endpoint="write",status="400"`:      1,
			`endpoint="write",status="200"`:      0,
			`endpoint="repl_query",status="200"`: 0,
		} {
			name := "kwscd_http_requests_total{" + series + "}"
			if got := after.Counter(name) - before.Counter(name); got != want {
				t.Errorf("%s moved by %d, want %d", name, got, want)
			}
		}
	})
}

func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func assertError(t *testing.T, resp *http.Response, body []byte, status int, code string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, status, body)
	}
	var er kwsc.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("non-JSON error body %q: %v", body, err)
	}
	if er.Code != code {
		t.Fatalf("code %q, want %q (%s)", er.Code, code, er.Error)
	}
}

// TestHTTPAdmission pins the shed behavior over the wire: quota exhaustion
// and overload both produce 429 with the right code and Retry-After.
func TestHTTPAdmission(t *testing.T) {
	objs := genObjects(300, 53)
	s, err := NewStatic(objs, Config{
		Shards:    2,
		K:         testK,
		Admission: AdmissionConfig{ClientRate: 0.001, ClientBurst: 2, MaxInflight: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := &kwsc.QueryRequest{Client: "tester", Keywords: []kwsc.Keyword{1, 2}}
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+kwsc.PathQuery, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.URL+kwsc.PathQuery, req)
	assertError(t, resp, body, http.StatusTooManyRequests, kwsc.CodeQuota)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Other clients are unaffected by tester's quota.
	other := &kwsc.QueryRequest{Client: "other", Keywords: []kwsc.Keyword{1, 2}}
	if resp, body := postJSON(t, ts.URL+kwsc.PathQuery, other); resp.StatusCode != http.StatusOK {
		t.Fatalf("other client shed: %d %s", resp.StatusCode, body)
	}

	// Fill the in-flight window directly, then watch the wire shed with
	// the overload code.
	var releases []func()
	for i := 0; s.adm.Inflight() < 8; i++ {
		d, r := s.adm.acquire(fmt.Sprintf("filler-%d", i))
		if d.Shed() {
			t.Fatalf("filler %d shed: %v", i, d)
		}
		releases = append(releases, r)
	}
	// Fresh clients (with quota to spare) still shed on the global window.
	fresh := &kwsc.QueryRequest{Client: "fresh", Keywords: []kwsc.Keyword{1, 2}}
	resp, body = postJSON(t, ts.URL+kwsc.PathQuery, fresh)
	assertError(t, resp, body, http.StatusTooManyRequests, kwsc.CodeOverload)
	for _, r := range releases {
		r()
	}
	if resp, body := postJSON(t, ts.URL+kwsc.PathQuery, fresh); resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: %d %s", resp.StatusCode, body)
	}
}

// TestPartitionerDeterminism pins content-hash routing to be a pure function
// of object content — required for stable routing across process restarts.
func TestPartitionerDeterminism(t *testing.T) {
	objs := genObjects(200, 59)
	p1 := newPartitioner(PartitionHash, 4, objs)
	p2 := newPartitioner(PartitionHash, 4, nil) // hash mode ignores seed
	for i, o := range objs {
		if a, b := p1.route(o), p2.route(o); a != b {
			t.Fatalf("object %d routes to %d and %d", i, a, b)
		}
	}
	// Range cuts derive from seed quantiles; every coordinate routes within
	// bounds and boundary coordinates go right (shard owns [lo, hi)).
	pr := newPartitioner(PartitionRange, 4, objs)
	for i, o := range objs {
		s := pr.route(o)
		if s < 0 || s >= 4 {
			t.Fatalf("object %d routed to %d", i, s)
		}
	}
	cut := pr.cuts[1]
	onCut := kwsc.Object{Point: kwsc.Point{cut, 0}, Doc: []kwsc.Keyword{1, 2}}
	if got := pr.route(onCut); got != 2 {
		t.Fatalf("coordinate exactly on cuts[1] routed to %d, want 2", got)
	}
	// split names each shard's objects in input order, each slice sized
	// exactly.
	for _, p := range []*partitioner{p1, pr} {
		globals := p.split(objs)
		for s := 0; s < p.n; s++ {
			var wantGlobal []int64
			for i, o := range objs {
				if p.route(o) == s {
					wantGlobal = append(wantGlobal, int64(i))
				}
			}
			if !reflect.DeepEqual(globals[s], wantGlobal) {
				t.Fatalf("%v shard %d: split named %v, want %v", p.mode, s, globals[s], wantGlobal)
			}
			if cap(globals[s]) != len(globals[s]) {
				t.Fatalf("%v shard %d: capacity %d for %d objects", p.mode, s, cap(globals[s]), len(globals[s]))
			}
		}
	}
	// Handle encoding round-trips.
	for local := int64(0); local < 5; local++ {
		for shard := 0; shard < 4; shard++ {
			l, sh := splitHandle(globalHandle(local, shard, 4), 4)
			if l != local || sh != shard {
				t.Fatalf("handle round-trip (%d,%d) -> (%d,%d)", local, shard, l, sh)
			}
		}
	}
}

// TestStalenessCache: with max_staleness_ms set, a dynamic shard may answer
// from a cached snapshot that misses the newest write; with it unset the
// write is immediately visible.
func TestStalenessCache(t *testing.T) {
	s, err := NewDynamic("", nil, Config{Shards: 1, Dim: 2, K: testK})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	fresh := &kwsc.QueryRequest{Keywords: []kwsc.Keyword{1, 2}}
	stale := &kwsc.QueryRequest{Keywords: []kwsc.Keyword{1, 2}, MaxStalenessMs: 60_000}
	if _, err := s.Query(stale, false); err != nil { // prime the snapshot cache
		t.Fatal(err)
	}
	if _, err := s.Write(&kwsc.WriteRequest{Op: kwsc.OpInsert,
		Point: []float64{0.5, 0.5}, Doc: []kwsc.Keyword{1, 2}}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Query(stale, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != 0 {
		t.Fatalf("stale read saw the new write (count=%d); cache not reused", got.Count)
	}
	got, err = s.Query(fresh, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != 1 {
		t.Fatalf("fresh read missed the write (count=%d)", got.Count)
	}
}

// A read that allows no staleness pins the shard's current state without the
// staleness cache: its collect returns while the test holds the cache's
// mutex, and it never reads the shard's clock — on a writer's shard and on a
// follower's alike.
func TestFreshReadTakesNoCacheLock(t *testing.T) {
	s, err := NewDynamic(t.TempDir(), nil, Config{Shards: 1, Dim: 2, K: testK})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Write(&kwsc.WriteRequest{Op: kwsc.OpInsert,
		Point: []float64{0.5, 0.5}, Doc: []kwsc.Keyword{1, 2}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	f, err := NewFollower(t.TempDir(), ts.URL, Config{FollowerPoll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seqs := primarySeqs(s)
	waitFor(t, 5*time.Second, "follower catch-up", func() bool { return followerCaughtUp(f, seqs) })

	writer := s.shards[0].(*dynamicShard)
	follower := f.shards[0].(*followerShard)
	for _, c := range []struct {
		name  string
		sh    shard
		cache *snapCache
	}{{"writer", writer, &writer.snapCache}, {"follower", follower, &follower.snapCache}} {
		c.cache.now = func() time.Time {
			t.Errorf("a fresh read on the %s read the clock", c.name)
			return time.Now()
		}
		c.cache.mu.Lock()
		done := make(chan legResult, 1)
		go func() {
			req := &kwsc.QueryRequest{Keywords: []kwsc.Keyword{1, 2}}
			done <- c.sh.collect(req, req.BoundingRect(2), req.ExactRegion(), req.Keywords, kwsc.QueryOpts{}, 0, new(legBuf))
		}()
		select {
		case res := <-done:
			c.cache.mu.Unlock()
			if res.err != nil || len(res.ids) != 1 {
				t.Fatalf("fresh read on the %s: %d ids, %v; want the one write", c.name, len(res.ids), res.err)
			}
		case <-time.After(10 * time.Second):
			c.cache.mu.Unlock()
			<-done
			t.Fatalf("a fresh read on the %s waited on the staleness cache's mutex", c.name)
		}
	}
}

// TestStalenessCacheUnderChurn hammers the cached-snapshot read path while
// writers churn the shards: bounded-staleness and fresh reads race inserts
// and deletes, and every answer must still be a set of handles the server
// actually issued. Run under -race via `make race`; the quiescent behavior
// is pinned by TestStalenessCache above.
func TestStalenessCacheUnderChurn(t *testing.T) {
	s, err := NewDynamic("", nil, Config{Shards: 3, Dim: 2, K: testK})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var mu sync.Mutex
	issued := make(map[int64]bool)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 8)
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			var mine []int64
			for i := 0; i < 300; i++ {
				if len(mine) > 0 && rng.Intn(4) == 0 {
					h := mine[rng.Intn(len(mine))]
					if _, err := s.Write(&kwsc.WriteRequest{Op: kwsc.OpDelete, Handle: h}); err != nil {
						errc <- err
						return
					}
					continue
				}
				// The handle is recorded under the lock the insert runs
				// under: a reader that finds it in an answer cannot look it
				// up in issued before it is there.
				mu.Lock()
				resp, err := s.Write(&kwsc.WriteRequest{Op: kwsc.OpInsert,
					Point: []float64{rng.Float64(), rng.Float64()},
					Doc:   workload.RandKeywords(rng, 60, testK+1)})
				if err == nil {
					issued[resp.Handle] = true
				}
				mu.Unlock()
				if err != nil {
					errc <- err
					return
				}
				mine = append(mine, resp.Handle)
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := randQuery(rng)
				if rng.Intn(2) == 0 {
					req.MaxStalenessMs = 1 + int64(rng.Intn(20))
				}
				resp, err := s.Query(req, false)
				if err != nil {
					errc <- err
					return
				}
				if !slices.IsSorted(resp.IDs) {
					errc <- fmt.Errorf("reader %d: unsorted ids %v", r, resp.IDs)
					return
				}
				mu.Lock()
				for _, id := range resp.IDs {
					if !issued[id] {
						err = fmt.Errorf("reader %d: handle %d never issued", r, id)
						break
					}
				}
				mu.Unlock()
				if err != nil {
					errc <- err
					return
				}
			}
		}(r)
	}
	// Writers run to completion with readers racing them the whole way;
	// errc is buffered wide enough that no goroutine ever blocks on it.
	writers.Wait()
	close(stop)
	readers.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
