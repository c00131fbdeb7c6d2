//go:build !race

package serve

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"kwsc"
	"kwsc/internal/workload"
)

// inlineRequests is the allocation guards' fixture: a 4-shard static server
// and 64 requests whose legs all run inline.
func inlineRequests(t *testing.T) (*Server, []*kwsc.QueryRequest) {
	const vocab = 1000
	objs := objectsOf(workload.Gen(workload.Config{Seed: 5, Objects: 20_000, Dim: 2, Vocab: vocab, DocLen: 6}))
	s, err := NewStatic(objs, Config{Shards: 4, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	rng := rand.New(rand.NewSource(5))
	var reqs []*kwsc.QueryRequest
	for len(reqs) < 64 {
		req := zipfStream(rng, vocab)
		req.Limit = 100
		if _, spawned := wantModes(s, req.Keywords); spawned == 0 {
			reqs = append(reqs, req)
		}
	}
	return s, reqs
}

// TestServerQueryAllocs guards the pooled scatter: a request whose legs all
// run inline on a 4-shard static server allocates what the response keeps —
// the QueryResponse, its Shards and its IDs — plus the bounding rectangle,
// and nothing per leg. (It was 18 per request with a goroutine, an id slice
// and a local-id slice per leg.) Under the race detector AllocsPerRun is
// unreliable, hence the build tag.
func TestServerQueryAllocs(t *testing.T) {
	s, reqs := inlineRequests(t)
	query := func() {
		for _, req := range reqs {
			if _, err := s.Query(req, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	query() // warm the pools and grow the leg buffers
	if allocs := testing.AllocsPerRun(20, query) / float64(len(reqs)); allocs > 4 {
		t.Fatalf("Server.Query allocates %.2f per request, want <= 4", allocs)
	}
}

// TestHandlerQueryAllocs guards the wire codec the same way: the same
// requests as POST /v1/query bodies through Handler().ServeHTTP on a stub
// writer. What remains per request: the body limiter, the QueryRequest (it
// escapes to the legs), its rect and three arrays; admission's release
// closure and flag; Server.Query's four; two header values and the
// Content-Length digits. (It was 25 with encoding/json on both sides.)
func TestHandlerQueryAllocs(t *testing.T) {
	s, queries := inlineRequests(t)
	reqs := make([]*replayRequest, len(queries))
	for i, q := range queries {
		body, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = newReplayRequest(kwsc.PathQuery, body)
	}
	h, w := s.Handler(), &stubWriter{h: make(http.Header)}
	serve := func() {
		for _, req := range reqs {
			if status := req.serve(h, w); status != http.StatusOK {
				t.Fatalf("status %d", status)
			}
		}
	}
	serve() // warm the pools and grow the buffers
	if allocs := testing.AllocsPerRun(20, serve) / float64(len(reqs)); allocs > 15 {
		t.Fatalf("POST /v1/query allocates %.2f per request, want <= 15", allocs)
	}
}

// TestLegEstimateAllocs: pricing a leg is free in the allocation sense, on
// static and on dynamic shards.
func TestLegEstimateAllocs(t *testing.T) {
	objs := genObjects(3000, 89)
	static, err := NewStatic(objs, Config{Shards: 2, K: testK})
	if err != nil {
		t.Fatal(err)
	}
	defer static.Close()
	dynamic, err := NewDynamic("", objs, Config{Shards: 2, Dim: 2, K: testK})
	if err != nil {
		t.Fatal(err)
	}
	defer dynamic.Close()
	for name, s := range map[string]*Server{"static": static, "dynamic": dynamic} {
		for _, ws := range [][]kwsc.Keyword{{0, 1}, {3, 50}, {40, 58}} { // all large, mixed, all small at the root
			if allocs := testing.AllocsPerRun(100, func() {
				for _, sh := range s.shards {
					sh.estimate(ws, 0)
				}
			}); allocs != 0 {
				t.Fatalf("%s estimate(%v) allocates %v per call, want 0", name, ws, allocs)
			}
		}
	}
}
