// Command kwsload drives a running kwscd with a closed-loop synthetic
// workload and reports throughput, tail latency, and goodput. A concurrency
// sweep (-sweep) produces the goodput-under-overload curve: each step runs C
// closed-loop clients for -duration, counting 200s (goodput), 429s (shed),
// and errors, with p50/p99/p999 over the successful responses. Results are
// printed as a table, one row per step.
//
//	kwsload -addr localhost:8080 -sweep 1,2,4,8,16 -duration 5s
//
// The generator discovers the server's dimensionality and keyword arity from
// /debug/stats, so requests always validate against the serving index.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"kwsc"
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:8080", "kwscd host:port")
		sweep     = flag.String("sweep", "1,2,4,8", "comma-separated closed-loop client counts")
		duration  = flag.Duration("duration", 5*time.Second, "measured length of each sweep step")
		waitReady = flag.Duration("wait-ready", 0, "poll /healthz up to this long before starting (0 = no wait)")

		vocab     = flag.Int("vocab", 1000, "keyword id range for generated queries (match the server corpus)")
		writeFrac = flag.Float64("writes", 0, "fraction of requests that are inserts (dynamic corpora only)")
		limit     = flag.Int("limit", 0, "per-query result limit (0 = all)")
		timeoutMs = flag.Int64("timeout-ms", 0, "per-query timeout knob (0 = server default)")
		staleMs   = flag.Int64("max-staleness", 0, "per-query max_staleness_ms: lets the server answer from cached snapshots and replicas no older than this (0 = always fresh)")
		seed      = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()
	base := "http://" + *addr

	if *waitReady > 0 {
		if err := waitHealthy(base, *waitReady); err != nil {
			log.Fatalf("kwsload: %v", err)
		}
	}
	dim, k, err := serverShape(base)
	if err != nil {
		log.Fatalf("kwsload: discovering server shape: %v", err)
	}
	if err := checkVocab(*vocab, k, *writeFrac); err != nil {
		log.Fatalf("kwsload: %v", err)
	}

	var concs []int
	for _, f := range strings.Split(*sweep, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || c <= 0 {
			log.Fatalf("kwsload: bad -sweep entry %q", f)
		}
		concs = append(concs, c)
	}

	fmt.Printf("%-14s %6s %10s %10s %10s %8s %8s %9s %9s %9s\n",
		"step", "conc", "qps", "goodput", "shed/s", "errors", "degraded", "p50(us)", "p99(us)", "p999(us)")
	totalOK := int64(0)
	for _, c := range concs {
		rec := runStep(base, stepConfig{
			conc:      c,
			duration:  *duration,
			dim:       dim,
			k:         k,
			vocab:     *vocab,
			writeFrac: *writeFrac,
			limit:     *limit,
			timeoutMs: *timeoutMs,
			staleMs:   *staleMs,
			seed:      *seed + int64(c)*1000,
		})
		totalOK += rec.ok
		fmt.Printf("%-14s %6d %10.1f %10.1f %10.1f %8d %8d %9d %9d %9d\n",
			fmt.Sprintf("query-c%d", c), c, float64(rec.requests)/rec.seconds,
			float64(rec.ok)/rec.seconds, float64(rec.shed)/rec.seconds,
			rec.errs, rec.degraded, rec.p50Us, rec.p99Us, rec.p999Us)
	}

	if totalOK == 0 {
		log.Fatal("kwsload: zero goodput — no request succeeded")
	}
}

func waitHealthy(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("/healthz answered %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy within %v: %v", timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// serverShape reads dimensionality and keyword arity from /debug/stats.
func serverShape(base string) (dim, k int, err error) {
	resp, err := http.Get(base + "/debug/stats")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var stats struct {
		Dim int `json:"dim"`
		K   int `json:"k"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return 0, 0, err
	}
	if stats.Dim <= 0 || stats.K <= 0 {
		return 0, 0, fmt.Errorf("implausible server shape dim=%d k=%d", stats.Dim, stats.K)
	}
	return stats.Dim, stats.K, nil
}

// checkVocab refuses a keyword range too small for the distinct ids a run
// draws: k per query and, when the run writes, k+1 per inserted document.
func checkVocab(vocab, k int, writeFrac float64) error {
	need := k
	if writeFrac > 0 {
		need = k + 1
	}
	if vocab < need {
		return fmt.Errorf("-vocab %d is too small for the server's k=%d: need at least %d", vocab, k, need)
	}
	return nil
}

type stepConfig struct {
	conc      int
	duration  time.Duration
	dim, k    int
	vocab     int
	writeFrac float64
	limit     int
	timeoutMs int64
	staleMs   int64
	seed      int64
}

// workerResult accumulates one closed-loop client's step counts.
type workerResult struct {
	requests, ok, shed, errs, degraded int64
	latencies                          []int64 // microseconds, OK responses only
}

// stepRow is one printed row of the sweep: the clients' summed counts, the
// step's measured wall-clock seconds, and latency percentiles over the OK
// responses in microseconds.
type stepRow struct {
	workerResult
	seconds              float64
	p50Us, p99Us, p999Us int64
}

func runStep(base string, cfg stepConfig) stepRow {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.conc * 2,
		MaxIdleConnsPerHost: cfg.conc * 2,
	}}
	defer client.CloseIdleConnections()

	results := make([]workerResult, cfg.conc)
	stop := time.Now().Add(cfg.duration)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
			clientName := fmt.Sprintf("kwsload-%d", w)
			res := &results[w]
			for time.Now().Before(stop) {
				var path string
				var body any
				if cfg.writeFrac > 0 && rng.Float64() < cfg.writeFrac {
					path, body = kwsc.PathWrite, randWrite(rng, cfg, clientName)
				} else {
					path, body = kwsc.PathQuery, randQuery(rng, cfg, clientName)
				}
				t0 := time.Now()
				status, resp := post(client, base+path, body)
				el := time.Since(t0).Microseconds()
				res.requests++
				switch {
				case status == http.StatusOK:
					res.ok++
					res.latencies = append(res.latencies, el)
					if resp.Degraded {
						res.degraded++
					}
				case status == http.StatusTooManyRequests:
					res.shed++
				default:
					res.errs++
				}
			}
		}(w)
	}
	wg.Wait()
	row := stepRow{seconds: time.Since(start).Seconds()}
	var all []int64
	for _, r := range results {
		row.requests += r.requests
		row.ok += r.ok
		row.shed += r.shed
		row.errs += r.errs
		row.degraded += r.degraded
		all = append(all, r.latencies...)
	}
	slices.Sort(all)
	row.p50Us = percentile(all, 0.50)
	row.p99Us = percentile(all, 0.99)
	row.p999Us = percentile(all, 0.999)
	return row
}

// post sends one JSON request; it returns 0 on transport failure. The
// response body is decoded just enough to read the degraded/truncated flags.
func post(client *http.Client, url string, body any) (int, kwsc.QueryResponse) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, kwsc.QueryResponse{}
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, kwsc.QueryResponse{}
	}
	defer resp.Body.Close()
	var qr kwsc.QueryResponse
	if resp.StatusCode == http.StatusOK {
		json.NewDecoder(resp.Body).Decode(&qr)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, qr
}

func randKeywords(rng *rand.Rand, vocab, k int) []kwsc.Keyword {
	// Weight toward the frequent (low-id) half so intersections are
	// non-trivial, mirroring internal/workload.RandKeywords.
	window := 1 + vocab/4
	if window < k {
		window = vocab
	}
	seen := make(map[kwsc.Keyword]bool, k)
	out := make([]kwsc.Keyword, 0, k)
	for len(out) < k {
		w := kwsc.Keyword(rng.Intn(window))
		if seen[w] {
			continue
		}
		seen[w] = true
		out = append(out, w)
	}
	return out
}

func randQuery(rng *rand.Rand, cfg stepConfig, client string) *kwsc.QueryRequest {
	req := &kwsc.QueryRequest{
		Client:         client,
		Keywords:       randKeywords(rng, cfg.vocab, cfg.k),
		Limit:          cfg.limit,
		TimeoutMs:      cfg.timeoutMs,
		MaxStalenessMs: cfg.staleMs,
	}
	switch rng.Intn(3) {
	case 0: // rectangle
		side := 0.05 + rng.Float64()*0.4
		lo := make([]float64, cfg.dim)
		hi := make([]float64, cfg.dim)
		for j := range lo {
			c := rng.Float64() * (1 - side)
			lo[j], hi[j] = c, c+side
		}
		req.Rect = &kwsc.RectWire{Lo: lo, Hi: hi}
	case 1: // sphere
		center := make([]float64, cfg.dim)
		for j := range center {
			center[j] = rng.Float64()
		}
		req.Sphere = &kwsc.SphereWire{Center: center, Radius: 0.05 + rng.Float64()*0.2}
	}
	return req
}

func randWrite(rng *rand.Rand, cfg stepConfig, client string) *kwsc.WriteRequest {
	point := make([]float64, cfg.dim)
	for j := range point {
		point[j] = rng.Float64()
	}
	return &kwsc.WriteRequest{
		Client: client,
		Op:     kwsc.OpInsert,
		Point:  point,
		Doc:    randKeywords(rng, cfg.vocab, cfg.k+1),
	}
}

// percentile returns the q-quantile of sorted microsecond samples (nearest
// rank; 0 when empty).
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
