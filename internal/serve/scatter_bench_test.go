package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"kwsc"
	"kwsc/internal/workload"
)

// queryPerLeg answers req the way every request used to be answered: one
// goroutine per shard and a WaitGroup park, whatever the legs cost. It shares
// the pooled state and the gather with Server.Query, so the difference
// between the two is the goroutine hand-off alone — BenchmarkScatter's
// reference point.
func (s *Server) queryPerLeg(req *kwsc.QueryRequest) (*kwsc.QueryResponse, error) {
	opts := req.Opts(0)
	q, exact := req.BoundingRect(s.cfg.Dim), req.ExactRegion()
	st := s.getScatter()
	defer s.putScatter(st)
	for i := range s.shards {
		st.wg.Add(1)
		go func(i int) {
			defer st.wg.Done()
			st.replies[i] = s.shards[i].collect(req, q, exact, req.Keywords, opts, 0, &st.bufs[i])
		}(i)
	}
	st.wg.Wait()
	return gather(st, req.Limit)
}

// BenchmarkScatter is the evidence behind inlineWorkUnits and behind keeping
// a spawn branch at all (EXPERIMENTS.md, "Scatter tax"). tiny is
// tiny-scatter's shape — Zipf k=2, legs of a few dozen work units, all run
// inline; heavy is heavy-core's — a planted k=3 triple with N/8-long lists,
// legs of hundreds to thousands of units. On heavy/shards=4 the first leg's
// measured cost spawns the two middle legs and the request goroutine runs the
// last; on heavy/shards=2 a heavy first leg leaves only one leg, so both run
// inline. Every sub-benchmark reports units/op, the summed QueryStats.Ops of a
// request's legs: shards=1 gives the time of a work unit, and (per-leg −
// scatter) / 4 on tiny/shards=4 the cost of handing a leg to a goroutine and
// being woken by it. Their quotient is the threshold. Needs GOMAXPROCS >= 2
// to show what a spawned leg buys.
func BenchmarkScatter(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("needs GOMAXPROCS >= 2")
	}

	const vocab = 1000
	tinyObjs := objectsOf(workload.Gen(workload.Config{Seed: 7, Objects: 50_000, Dim: 2, Vocab: vocab, DocLen: 6}))
	const heavyN = 65_536
	planted, heavyKws, _ := workload.GenPlanted(workload.Planted{Seed: 7, Objects: heavyN, Dim: 2, K: 3, Out: 64, Partial: heavyN / 8})
	heavyObjs := objectsOf(planted)

	for _, w := range []struct {
		name string
		objs []kwsc.Object
		k    int
		next func(*rand.Rand) *kwsc.QueryRequest
	}{
		{"tiny", tinyObjs, 2, func(rng *rand.Rand) *kwsc.QueryRequest {
			r := workload.RandRect(rng, 2, 0.05)
			return &kwsc.QueryRequest{Rect: &kwsc.RectWire{Lo: r.Lo, Hi: r.Hi},
				Keywords: workload.RandKeywords(rng, vocab, 2), Limit: 100}
		}},
		{"heavy", heavyObjs, 3, func(rng *rand.Rand) *kwsc.QueryRequest {
			r := workload.RandRect(rng, 2, 0.2+0.3*rng.Float64())
			return &kwsc.QueryRequest{Rect: &kwsc.RectWire{Lo: r.Lo, Hi: r.Hi}, Keywords: heavyKws, Limit: 100}
		}},
	} {
		for _, shards := range []int{1, 2, 4} {
			s, err := NewStatic(w.objs, Config{Shards: shards, K: w.k})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			reqs := make([]*kwsc.QueryRequest, 1024)
			for i := range reqs {
				reqs[i] = w.next(rng)
			}
			run := func(query func(*kwsc.QueryRequest) (*kwsc.QueryResponse, error)) func(*testing.B) {
				return func(b *testing.B) {
					var units int64
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						resp, err := query(reqs[i%len(reqs)])
						if err != nil {
							b.Fatal(err)
						}
						for _, so := range resp.Shards {
							units += so.Ops
						}
					}
					b.ReportMetric(float64(units)/float64(b.N), "units/op")
				}
			}
			name := fmt.Sprintf("%s/shards=%d", w.name, shards)
			b.Run(name, run(func(req *kwsc.QueryRequest) (*kwsc.QueryResponse, error) { return s.Query(req, false) }))
			if shards > 1 {
				b.Run(name+"/per-leg", run(s.queryPerLeg))
			}
			s.Close()
		}
	}
}
