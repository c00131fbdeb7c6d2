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
	objs := objectsOf(workload.Gen(workload.Config{Seed: 5, Objects: 20_000, Dim: 2, Vocab: allocVocab, DocLen: 6}))
	s, err := NewStatic(objs, Config{Shards: 4, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, inlineOn(t, s)
}

// allocVocab is the vocabulary of the allocation guards' corpora.
const allocVocab = 1000

// inlineOn draws 64 requests whose legs all run inline on s, as replayModes
// over a first answer says.
func inlineOn(t *testing.T, s *Server) []*kwsc.QueryRequest {
	rng := rand.New(rand.NewSource(5))
	var reqs []*kwsc.QueryRequest
	for len(reqs) < 64 {
		req := zipfStream(rng, allocVocab)
		req.Limit = 100
		resp, err := s.Query(req, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, spawned := replayModes(s, resp, 0); spawned == 0 {
			reqs = append(reqs, req)
		}
	}
	return reqs
}

// TestServerQueryAllocs guards the pooled scatter: a request whose legs all
// run inline on a 4-shard static server allocates what the response keeps —
// the QueryResponse, its Shards and its IDs — plus the bounding rectangle,
// and nothing per leg. (It was 18 per request with a goroutine, an id slice
// and a local-id slice per leg.) On a 2-shard dynamic server each leg adds
// one allocation: the *DynSnapshot SnapshotNow returns, which the
// DynamicIndex contract hands out per pin. (With a report closure built per
// leg as well it was 7.12 per request; now 5.12.) Under the race detector
// AllocsPerRun is unreliable, hence the build tag.
func TestServerQueryAllocs(t *testing.T) {
	dynamic := func(t *testing.T) (*Server, []*kwsc.QueryRequest) {
		objs := objectsOf(workload.Gen(workload.Config{Seed: 5, Objects: 20_000, Dim: 2, Vocab: allocVocab, DocLen: 6}))
		s, err := NewDynamic("", objs, Config{Shards: 2, Dim: 2, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s, inlineOn(t, s)
	}
	for _, tc := range []struct {
		name   string
		server func(*testing.T) (*Server, []*kwsc.QueryRequest)
		want   float64
	}{
		{"static-4", inlineRequests, 4},
		{"dynamic-2", dynamic, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, reqs := tc.server(t)
			query := func() {
				for _, req := range reqs {
					if _, err := s.Query(req, false); err != nil {
						t.Fatal(err)
					}
				}
			}
			query() // warm the pools and grow the leg buffers
			allocs := testing.AllocsPerRun(20, query) / float64(len(reqs))
			t.Logf("%.2f allocations per request", allocs)
			if allocs > tc.want {
				t.Fatalf("Server.Query allocates %.2f per request, want <= %v", allocs, tc.want)
			}
		})
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
