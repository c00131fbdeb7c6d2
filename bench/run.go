package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"kwsc"
	"kwsc/internal/serve"
)

// runConfig is one invocation's parameters.
type runConfig struct {
	seed     int64
	seconds  float64
	dataRoot string // data directories are made under it and removed again
	outDir   string // traced runs write trace-<workload>.json here
	// scale shrinks corpora and op counts; 1 outside the tests.
	scale float64
	// corruptOracle flips one oracle entry, to show that a wrong answer
	// fails the run.
	corruptOracle bool
	log           func(format string, args ...any)
	probe         *prober
}

// world is a stood-up system: the server behind a real net/http listener on
// loopback, and the oracle holding the same corpus.
type world struct {
	inst    *instance
	probe   *prober
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	addr    string
	dir     string
	oracle  *oracle
	setupS  float64 // set-up time at reference host speed
	rawS    float64
	handler http.Handler // srv.Handler()
	// rec, when set, is the traced phase whose handler spans are being
	// recorded; untraced runs pay one atomic load per request for it.
	rec atomic.Pointer[traceRecorder]
}

func (w *world) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if rec := w.rec.Load(); rec != nil {
		rec.serveHTTP(w.handler, rw, r)
		return
	}
	w.handler.ServeHTTP(rw, r)
}

// standUp times set-up as the issue defines it: from the first constructor
// call until the first query is answered over HTTP. Corpus and request
// generation happened before; building the oracle happens after.
func standUp(inst *instance, cfg *runConfig, tag string) (*world, error) {
	w := &world{inst: inst, probe: cfg.probe, dir: filepath.Join(cfg.dataRoot, fmt.Sprintf("%s-%d-%s", inst.spec.name, os.Getpid(), tag))}
	var firstOp op
	mid := kwsc.NewRect(make([]float64, inst.spec.dim), make([]float64, inst.spec.dim))
	ws := make([]kwsc.Keyword, inst.spec.k)
	for j := range mid.Lo {
		mid.Lo[j], mid.Hi[j] = 0.25, 0.75
	}
	for j := range ws {
		ws[j] = kwsc.Keyword(j)
	}
	firstOp.query(mid, ws)

	before, err := w.probe.median(5)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(w.dir)
		return nil, err
	}
	w.addr = ln.Addr().String()
	start := time.Now()
	srv, ids, err := inst.setup(w.dir)
	if err != nil {
		ln.Close()
		os.RemoveAll(w.dir)
		return nil, fmt.Errorf("set-up: %w", err)
	}
	w.srv, w.handler = srv, srv.Handler()
	w.hs = &http.Server{Handler: w}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	c, err := dialHTTP(w.addr, srv.NumShards())
	if err == nil {
		if err = c.prepare([]op{firstOp}, 0); err == nil {
			err = c.do(0)
		}
		c.close()
	}
	w.rawS = time.Since(start).Seconds()
	if err != nil {
		w.close()
		return nil, fmt.Errorf("first query: %w", err)
	}
	after, err := w.probe.median(5)
	if err != nil {
		w.close()
		return nil, err
	}
	w.setupS = w.rawS * speedFactor(before, after)

	w.oracle = newOracle()
	for i, o := range inst.objs {
		id := int64(i)
		if ids != nil {
			id = ids[i]
		}
		w.oracle.insert(id, o)
	}
	if cfg.corruptOracle {
		for i := range w.oracle.dead {
			w.oracle.dead[i] = true
		}
	}
	return w, nil
}

// stop closes the listener, waits for it to end, and closes the shards.
func (w *world) stop() error {
	if w.hs == nil {
		return nil
	}
	err := w.hs.Close()
	<-w.served
	w.hs = nil
	if cerr := w.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// close stops the system and removes its data directory.
func (w *world) close() error {
	err := w.stop()
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}

// phaseSpec is one pass over a prefix of the workload's stream through one
// rung.
type phaseSpec struct {
	exec        executor
	stream      *stream
	warmup, ops int
	sampleEvery int           // oracle-check every n-th op
	wallCap     time.Duration // stop at a slice boundary past this much wall time (0 = none)
	memStats    bool          // accumulate runtime.MemStats deltas over the slices
	perOp       bool          // keep every measured op's kind, latency and factor (traced phases join spans on them)
	// before runs ahead of every op with its id (traced phases use it to tell
	// the tracer which request the next spans belong to).
	before func(id int)
}

// phaseResult pools a phase's measured slices.
type phaseResult struct {
	query, write pool // client-side latency, µs
	// sliceP99 holds every measured slice's own query p99, as measured and
	// corrected.
	sliceP99   pool
	ops        int // measured ops completed
	rawWallS   float64
	wallS      float64 // Σ slice wall time × speed factor
	cpuUs      float64 // Σ slice user+sys CPU × speed factor
	probes     []float64
	attempted  int64
	failed     int64
	mismatches int64
	firstBad   string
	reqBytes   int64
	rspBytes   int64
	mem        memDelta
	reg        [2]kwsc.MetricsSnapshot // registry at the start and end of the measured ops
	// Per measured op, when phaseSpec.perOp asks for it: its stream id, kind,
	// corrected latency and its slice's speed factor.
	firstID int
	kinds   []opKind
	latUs   []float64
	factor  []float64
}

type memDelta struct {
	mallocs, bytes, gcs, pauseNs uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPhase drives the stream closed-loop from this goroutine, slice by
// slice. Around every slice, with no request in flight, it runs the
// calibration probe; every duration measured inside the slice is scaled by
// the slice's speed factor before it is pooled. Warm-up slices run the same
// way and are discarded. Nothing forces a GC between slices: that would
// empty the sync.Pools the serving path relies on.
func runPhase(w *world, p phaseSpec) (*phaseResult, error) {
	sliceOps := w.inst.sliceOps
	res := &phaseResult{firstID: p.warmup}
	slice := make([]op, 0, sliceOps)
	lat := make([]float64, 0, sliceOps)
	qs := make([]float64, 0, sliceOps)
	ws := make([]float64, 0, sliceOps)
	var ms0, ms1 runtime.MemStats
	total := p.warmup + p.ops
	began := time.Now()
	for id := 0; id < total; {
		measured := id >= p.warmup
		if id == p.warmup {
			res.reg[0] = kwsc.Metrics()
			began = time.Now()
		}
		n := min(sliceOps, total-id)
		if !measured {
			n = min(n, p.warmup-id) // the warm-up ends on a slice boundary
		} else if p.wallCap > 0 && time.Since(began) > p.wallCap {
			break
		}
		slice = slice[:n]
		for i := range slice {
			p.stream.next(&slice[i])
		}
		if err := p.exec.prepare(slice, id); err != nil {
			return nil, err
		}
		lat = lat[:0]
		if p.memStats && measured {
			runtime.ReadMemStats(&ms0)
		}

		probeBefore, err := w.probe.run()
		if err != nil {
			return nil, err
		}
		cpu0, t0 := cpuTime(), time.Now()
		for i := range slice {
			if p.before != nil {
				p.before(id + i)
			}
			s := time.Now()
			if err := p.exec.do(i); err != nil {
				return nil, fmt.Errorf("op %d: %w", id+i, err)
			}
			lat = append(lat, float64(time.Since(s).Nanoseconds())/1e3)
		}
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		probeAfter, err := w.probe.run()
		if err != nil {
			return nil, err
		}
		f := speedFactor(probeBefore, probeAfter)

		if p.memStats && measured {
			runtime.ReadMemStats(&ms1)
			res.mem.mallocs += ms1.Mallocs - ms0.Mallocs
			res.mem.bytes += ms1.TotalAlloc - ms0.TotalAlloc
			res.mem.gcs += uint64(ms1.NumGC - ms0.NumGC)
			res.mem.pauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		}
		// After the slice: failure accounting for every op, the oracle's
		// replay of every write, and an oracle check of every
		// sampleEvery-th query.
		qs, ws = qs[:0], ws[:0]
		for i := range slice {
			o := &slice[i]
			check := o.kind == opQuery && (id+i)%p.sampleEvery == 0
			r, err := p.exec.finish(i, check)
			if err != nil {
				return nil, fmt.Errorf("op %d: %w", id+i, err)
			}
			res.attempted++
			bad := r.failed
			switch o.kind {
			case opInsert:
				p.stream.inserted(r.handle)
				w.oracle.insert(r.handle, kwsc.Object{Point: o.w.Point, Doc: o.w.Doc})
			case opDelete:
				bad = !w.oracle.remove(o.w.Handle) || bad
			default:
				if check {
					if err := w.oracle.check(&o.q, r.ids); err != nil {
						res.mismatches++
						bad = true
						if res.firstBad == "" {
							res.firstBad = fmt.Sprintf("op %d: %v", id+i, err)
						}
					}
				}
			}
			if bad {
				res.failed++
			}
			if !measured {
				continue
			}
			res.reqBytes += int64(r.reqBytes)
			res.rspBytes += int64(r.rspBytes)
			if p.perOp {
				res.kinds = append(res.kinds, o.kind)
				res.latUs = append(res.latUs, lat[i]*f)
				res.factor = append(res.factor, f)
			}
			if o.kind == opQuery {
				qs = append(qs, lat[i])
			} else {
				ws = append(ws, lat[i])
			}
		}
		if measured {
			res.query.add(qs, f)
			res.write.add(ws, f)
			sort.Float64s(qs)
			res.sliceP99.add([]float64{percentile(qs, 0.99)}, f)
			res.ops += n
			res.rawWallS += wall.Seconds()
			res.wallS += wall.Seconds() * f
			res.cpuUs += float64(cpu.Nanoseconds()) / 1e3 * f
			res.probes = append(res.probes, probeBefore, probeAfter)
		}
		id += n
	}
	res.reg[1] = kwsc.Metrics()
	return res, nil
}

// counter is how far a registry counter moved during the measured ops.
func (r *phaseResult) counter(name string) float64 {
	return float64(r.reg[1].Counter(name) - r.reg[0].Counter(name))
}

// histMean is the mean observation recorded during the phase (0 if none).
func (r *phaseResult) histMean(name string) float64 {
	a, b := r.reg[0].Histogram(name), r.reg[1].Histogram(name)
	if b.Count == a.Count {
		return 0
	}
	return float64(b.Sum-a.Sum) / float64(b.Count-a.Count)
}

func (r *phaseResult) verdict() error {
	if r.mismatches > 0 {
		return fmt.Errorf("%d answers differ from the oracle; first: %s", r.mismatches, r.firstBad)
	}
	return nil
}

// statusMB reads one kB field (VmRSS, VmHWM) of /proc/self/status, in MB.
func statusMB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, field+": %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no " + field + " line in /proc/self/status")
}

// setupReps is how many times a timed run stands the system up; setup_s is
// the median, and the last one serves the measured phase.
const setupReps = 3

// runTimed is the untraced run every end-to-end number comes from.
func runTimed(spec *workloadSpec, cfg *runConfig) (*report, error) {
	began := time.Now()
	inst := spec.instantiate(cfg.seed, cfg.scale)
	cfg.log("inputs generated in %.1f s", time.Since(began).Seconds())
	var w *world
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
			// Return the previous copy's memory, so the high-water mark is
			// one system's and not two.
			w = nil
			debug.FreeOSMemory()
		}
		var err error
		if w, err = standUp(inst, cfg, fmt.Sprint(rep)); err != nil {
			return nil, err
		}
		setups = append(setups, w.setupS)
		cfg.log("set-up %d: %.3f s raw, %.3f s at reference speed", rep, w.rawS, w.setupS)
	}
	defer w.close()

	c, err := dialHTTP(w.addr, w.srv.NumShards())
	if err != nil {
		return nil, err
	}
	defer c.close()
	res, err := runPhase(w, phaseSpec{
		exec: c, stream: inst.newStream(),
		warmup: inst.warmupOps, ops: spec.measuredOps(cfg.seconds, 1, cfg.scale), sampleEvery: 16,
		// A host much slower than the reference stops early rather than
		// overrunning the driver's time limit.
		wallCap: time.Duration(1.15 * cfg.seconds * float64(time.Second)),
	})
	if err != nil {
		return nil, err
	}
	peak, err := statusMB("VmHWM")
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	rss, err := statusMB("VmRSS")
	if err != nil {
		return nil, err
	}
	cfg.log("resident set %.1f MB after a forced GC, high-water mark %.1f MB", rss, peak)

	q := sortedCopy(res.query.corrected)
	rawQ := sortedCopy(res.query.raw)
	probes := sortedCopy(res.probes)
	cfg.log("data directory %s on %s; run took %.1f s", w.dir, fsName(w.dir), time.Since(began).Seconds())
	cfg.log("%d ops in %d slices, %.2f s raw; %d query samples, %d beyond p99; %d write samples",
		res.ops, len(res.probes)/2, res.rawWallS, len(q), len(q)/100, len(res.write.raw))
	cfg.log("raw: ops_per_s %.1f, query p50 %.2f us, pooled p99 %.2f us; probe median %.1f us (reference %.0f), p10–p90 spread %.3f",
		float64(res.ops)/res.rawWallS, percentile(rawQ, 0.5), percentile(rawQ, 0.99),
		percentile(probes, 0.5), float64(probeRefUs), (percentile(probes, 0.9)-percentile(probes, 0.1))/percentile(probes, 0.5))
	if len(res.write.corrected) > 0 {
		cfg.log("write p50 %.2f us at reference speed (gated only through ops_per_s and cpu_us_per_op; see README)",
			median(res.write.corrected))
	}
	rep := &report{
		Correct:   res.verdict() == nil && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics: fillMetrics(endToEnd, map[string]float64{
			"setup_s":       median(setups),
			"ops_per_s":     float64(res.ops) / res.wallS,
			"query_p50_us":  percentile(q, 0.5),
			"query_p99_us":  median(res.sliceP99.corrected),
			"cpu_us_per_op": res.cpuUs / float64(res.ops),
			"rss_mb":        rss,
		}),
	}
	return rep, res.verdict()
}

// fsName names the filesystem a directory is on, so that a reader of the
// output knows whose fsync times these are.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown filesystem"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xef53: "ext2/3/4", 0x58465342: "xfs",
		0x9123683e: "btrfs", 0x794c7630: "overlayfs", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("filesystem type %#x", st.Type)
}
