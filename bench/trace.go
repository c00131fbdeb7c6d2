package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"kwsc"
)

const benchIDHeader = "X-Bench-Id"

// tracePhaseShare is the part of -seconds each traced-run phase replays.
const tracePhaseShare = 0.2

// leg is one core span (kwsc.SetTracer) seen while a request was in flight.
type leg struct {
	Family    string  `json:"family"`
	Op        string  `json:"op"`
	ElapsedUs float64 `json:"elapsed_us"`
	Nodes     int     `json:"nodes"`
	Ops       int64   `json:"ops"`
	Out       int     `json:"out"`
}

// reqTrace holds the spans of one request; its index is the id they share
// (the op's position in the stream, sent as the X-Bench-Id header).
type reqTrace struct {
	ID        int     `json:"id"`
	Kind      string  `json:"kind"`
	ClientUs  float64 `json:"client_us"`
	HandlerUs float64 `json:"handler_us"`
	ReqBytes  int64   `json:"req_bytes"`
	RespBytes int64   `json:"resp_bytes"`
	Legs      []leg   `json:"core_legs"`
}

// traceRecorder is the benchmark's own kwsc.Tracer and handler middleware.
// The loop is closed with one client, so every core span that ends while
// request id is in flight belongs to it; the mutex orders the shard legs of
// one scatter.
type traceRecorder struct {
	mu   sync.Mutex
	cur  int
	recs []reqTrace
}

func (t *traceRecorder) setCurrent(id int) {
	t.mu.Lock()
	t.cur = id
	t.mu.Unlock()
}

func (t *traceRecorder) Begin(string, string) {}

func (t *traceRecorder) End(sp kwsc.Span) {
	t.mu.Lock()
	r := &t.recs[t.cur]
	r.Legs = append(r.Legs, leg{sp.Family, sp.Op, float64(sp.Elapsed.Nanoseconds()) / 1e3, sp.Nodes, sp.Ops, sp.Out})
	t.mu.Unlock()
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (t *traceRecorder) serveHTTP(h http.Handler, rw http.ResponseWriter, r *http.Request) {
	cw := &countingWriter{ResponseWriter: rw}
	start := time.Now()
	h.ServeHTTP(cw, r)
	d := time.Since(start)
	id, err := strconv.Atoi(r.Header.Get(benchIDHeader))
	if err != nil || id < 0 || id >= len(t.recs) {
		return
	}
	t.mu.Lock()
	t.recs[id].HandlerUs = float64(d.Nanoseconds()) / 1e3
	t.recs[id].ReqBytes, t.recs[id].RespBytes = r.ContentLength, cw.n
	t.mu.Unlock()
}

// coreOf sums a request's core legs: the slowest leg is on the critical path
// of the scatter, so it is the request's core time; nodes, ops and results
// are work and add up.
func coreOf(legs []leg) (maxUs float64, nodes, ops, out float64) {
	for _, l := range legs {
		maxUs = max(maxUs, l.ElapsedUs)
		nodes += float64(l.Nodes)
		ops += float64(l.Ops)
		out += float64(l.Out)
	}
	return
}

// runTraced replays the first part of the workload four times — over HTTP
// untraced, over HTTP with the tracer, the handler middleware and client
// spans, through serve.Server in-process, and through kwsc.CollectInto — and
// derives every per-layer metric. No end-to-end number comes from here.
func runTraced(spec *workloadSpec, cfg *runConfig) (*report, error) {
	inst := spec.instantiate(cfg.seed, cfg.scale)
	ops := spec.measuredOps(cfg.seconds, tracePhaseShare, cfg.scale)
	// Every phase replays the same prefix of the stream; a quarter of the
	// timed run's warm-up is enough before a quarter-length phase (and
	// still covers rw-mixed's insert backlog).
	warmup := inst.warmupOps / 4
	vals := map[string]float64{"trace.ops": float64(ops)}
	rep := &report{Correct: true}
	var firstErr error
	began := time.Now()
	account := func(r *phaseResult) {
		cfg.log("phase done at %.1f s: %d ops, %.2f s in slices", time.Since(began).Seconds(), r.ops, r.rawWallS)
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		if err := r.verdict(); err != nil && firstErr == nil {
			firstErr = err
		}
	}

	runStart := kwsc.Metrics()
	var w *world
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	// A workload that writes starts every phase from a fresh system, so the
	// phases replay the same ops against the same state.
	world := func(tag string) error {
		if w != nil && !inst.mutates {
			return nil
		}
		if w != nil {
			if err := w.close(); err != nil {
				return err
			}
			w = nil
		}
		var err error
		w, err = standUp(inst, cfg, tag)
		return err
	}

	// Phase A: untraced over HTTP. Registry, MemStats and probe figures come
	// from here, where nothing of the tracing is switched on.
	if err := world("a"); err != nil {
		return nil, err
	}
	built := kwsc.Metrics()
	for name, h := range built.Histograms {
		if strings.HasPrefix(name, "kwsc_build_ns") {
			vals["core.build_s"] += float64(h.Sum-runStart.Histogram(name).Sum) / 1e9
		}
	}
	c, err := dialHTTP(w.addr, w.srv.NumShards())
	if err != nil {
		return nil, err
	}
	a, err := runPhase(w, phaseSpec{exec: c, stream: inst.newStream(), warmup: warmup, ops: ops, sampleEvery: 1, memStats: true})
	c.close()
	if err != nil {
		return nil, err
	}
	account(a)
	n := float64(a.ops)
	probes := sortedCopy(a.probes)
	rawQ := sortedCopy(a.query.raw)
	vals["host.probe_us"] = percentile(probes, 0.5)
	vals["host.probe_spread"] = (percentile(probes, 0.9) - percentile(probes, 0.1)) / percentile(probes, 0.5)
	vals["raw.ops_per_s"] = n / a.rawWallS
	vals["raw.query_p50_us"] = percentile(rawQ, 0.5)
	vals["raw.query_p99_us"] = median(a.sliceP99.raw)
	vals["client.write_p50_us"] = median(a.write.corrected)
	vals["runtime.allocs_per_op"] = float64(a.mem.mallocs) / n
	vals["runtime.alloc_bytes_per_op"] = float64(a.mem.bytes) / n
	vals["runtime.gc_cycles"] = float64(a.mem.gcs)
	vals["runtime.gc_pause_us_per_op"] = float64(a.mem.pauseNs) / 1e3 / n
	vals["core.dyn_publishes"] = a.counter("kwsc_dynamic_state_publishes_total")
	vals["core.dyn_carries"] = a.counter("kwsc_dynamic_carries_total")
	vals["core.dyn_rebuilds"] = a.counter("kwsc_dynamic_rebuilds_total")
	hits, misses := a.counter("kwsc_pager_pin_hits_total"), a.counter("kwsc_pager_pin_misses_total")
	vals["pager.pin_hits"], vals["pager.pin_misses"] = hits, misses
	if hits+misses > 0 {
		vals["pager.hit_ratio"] = hits / (hits + misses)
	}
	vals["pager.evictions"] = a.counter("kwsc_pager_evictions_total")
	vals["pager.pin_us"] = a.histMean("kwsc_pager_pin_ns") / 1e3
	vals["wal.appends"] = a.counter("kwsc_wal_appends_total")
	if vals["wal.appends"] > 0 {
		vals["wal.bytes_per_write"] = a.counter("kwsc_wal_append_bytes_total") / vals["wal.appends"]
	}
	vals["wal.fsyncs"] = a.counter("kwsc_wal_fsyncs_total")
	vals["wal.checkpoints"] = a.counter("kwsc_wal_checkpoints_total")
	vals["wal.checkpoint_ms"] = a.histMean("kwsc_wal_checkpoint_ns") / 1e6
	if live := w.srv.Live(); live > 0 {
		vals["codec.ckpt_bytes_per_obj"] = float64(checkpointBytes(w.dir)) / float64(live)
	}

	// Phase B: the same ops over HTTP with every span recorded.
	if err := world("b"); err != nil {
		return nil, err
	}
	rec := &traceRecorder{recs: make([]reqTrace, warmup+ops)}
	kwsc.SetTracer(rec)
	w.rec.Store(rec)
	c, err = dialHTTP(w.addr, w.srv.NumShards())
	if err != nil {
		return nil, err
	}
	b, err := runPhase(w, phaseSpec{exec: c, stream: inst.newStream(), warmup: warmup, ops: ops, sampleEvery: 1, perOp: true, before: rec.setCurrent})
	c.close()
	w.rec.Store(nil)
	kwsc.SetTracer(nil)
	if err != nil {
		return nil, err
	}
	account(b)
	vals["trace.overhead_ratio"] = median(b.query.corrected) / median(a.query.corrected)
	vals["serve.req_bytes"] = float64(b.reqBytes) / float64(b.ops)
	vals["serve.resp_bytes"] = float64(b.rspBytes) / float64(b.ops)
	var coreUs, clientSelf, handlerUs []float64
	var nodes, coreOps, out, queries float64
	for i, kind := range b.kinds {
		r := &rec.recs[b.firstID+i]
		r.ID, r.ClientUs = b.firstID+i, b.latUs[i]/b.factor[i]
		r.Kind = [...]string{"query", "insert", "delete"}[kind]
		if kind != opQuery {
			continue
		}
		us, nd, op, o := coreOf(r.Legs)
		coreUs = append(coreUs, us*b.factor[i])
		handlerUs = append(handlerUs, r.HandlerUs*b.factor[i])
		clientSelf = append(clientSelf, b.latUs[i]-r.HandlerUs*b.factor[i])
		nodes, coreOps, out, queries = nodes+nd, coreOps+op, out+o, queries+1
	}
	sortedCore := sortedCopy(coreUs)
	vals["core.query_p50_us"] = percentile(sortedCore, 0.5)
	vals["core.query_p99_us"] = percentile(sortedCore, 0.99)
	vals["core.nodes_per_query"] = nodes / queries
	vals["core.ops_per_query"] = coreOps / queries
	vals["core.results_per_query"] = out / queries
	vals["client.self_us"] = median(clientSelf)

	// Phase C: the same ops through serve.Server in-process, tracer on, so
	// each call pairs with its own core legs.
	if err := world("c"); err != nil {
		return nil, err
	}
	recC := &traceRecorder{recs: make([]reqTrace, warmup+ops)}
	kwsc.SetTracer(recC)
	s, err := runPhase(w, phaseSpec{exec: &serveExec{srv: w.srv}, stream: inst.newStream(), warmup: warmup, ops: ops, sampleEvery: 1, perOp: true, before: recC.setCurrent})
	kwsc.SetTracer(nil)
	if err != nil {
		return nil, err
	}
	account(s)
	vals["serve.query_us"] = median(s.query.corrected)
	vals["serve.write_us"] = median(s.write.corrected)
	var serveSelf, httpSelf []float64
	qi := 0
	for i, kind := range s.kinds {
		if kind != opQuery {
			continue
		}
		us, _, _, _ := coreOf(recC.recs[s.firstID+i].Legs)
		serveSelf = append(serveSelf, s.latUs[i]-us*s.factor[i])
		if qi < len(handlerUs) { // phases B and C replay the same ops
			httpSelf = append(httpSelf, handlerUs[qi]-s.latUs[i])
		}
		qi++
	}
	vals["serve.self_us"] = median(serveSelf)
	vals["serve.http_self_us"] = median(httpSelf)

	// Phase D: the floor — kwsc.Degraded.CollectInto on the unsharded corpus.
	if inst.static {
		ds, err := kwsc.NewDataset(inst.objs)
		if err != nil {
			return nil, err
		}
		ix, err := kwsc.NewDegraded(ds, spec.k)
		if err != nil {
			return nil, err
		}
		d, err := runPhase(w, phaseSpec{exec: &collectExec{ix: ix}, stream: inst.newStream(), warmup: warmup, ops: ops, sampleEvery: 1})
		if err != nil {
			return nil, err
		}
		account(d)
		vals["kwsc.collect_us"] = median(d.query.corrected)
	}

	if inst.reopen != nil {
		// Timed reopen of the directory the server has just released.
		if err := w.stop(); err != nil {
			return nil, err
		}
		var opens []float64
		for i := 0; i < 5; i++ {
			start := time.Now()
			d, err := inst.reopen(w.dir)
			if err != nil {
				return nil, fmt.Errorf("cold reopen: %w", err)
			}
			opens = append(opens, float64(time.Since(start).Nanoseconds())/1e6)
			if err := d.Close(); err != nil {
				return nil, err
			}
		}
		vals["pager.cold_open_ms"] = median(opens)
	}
	vals["core.fallbacks"] = float64(kwsc.Metrics().Counter("kwsc_fallbacks_total") - runStart.Counter("kwsc_fallbacks_total"))

	rep.Correct = firstErr == nil && rep.Failed == 0
	rep.Metrics = fillMetrics(perLayer, vals)
	cfg.log("per-layer metrics, %s, seed %d, %d ops per phase:", spec.name, cfg.seed, ops)
	for _, d := range perLayer {
		cfg.log("  %-28s %14.3f %s", d.Name, vals[d.Name], d.Unit)
	}
	if err := writeTraceFile(cfg, spec, rep, rec.recs[b.firstID:]); err != nil {
		return nil, err
	}
	return rep, firstErr
}

// checkpointBytes sums the newest checkpoint of every shard directory under
// dir.
func checkpointBytes(dir string) int64 {
	var total int64
	shards, _ := filepath.Glob(filepath.Join(dir, "shard-*"))
	for _, sd := range shards {
		ckpts, _ := filepath.Glob(filepath.Join(sd, "checkpoint-*.ckpt"))
		if len(ckpts) == 0 {
			continue
		}
		// Names carry a zero-padded sequence number, so the last is newest.
		if st, err := os.Stat(ckpts[len(ckpts)-1]); err == nil {
			total += st.Size()
		}
	}
	return total
}

// traceFileRequests bounds the spans written out; every request's spans are
// kept in memory and enter the table.
const traceFileRequests = 500

func writeTraceFile(cfg *runConfig, spec *workloadSpec, rep *report, recs []reqTrace) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload": spec.name, "seed": cfg.seed, "seconds": cfg.seconds,
		"layers":   rep.Metrics,
		"requests": recs[:min(len(recs), traceFileRequests)],
	}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "trace-"+spec.name+".json")
	cfg.log("trace written to %s", path)
	return os.WriteFile(path, data, 0o644)
}
