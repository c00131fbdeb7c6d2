// Package obs is the zero-dependency observability layer: a lock-cheap
// metrics registry (atomic counters, gauges and fixed-bucket histograms)
// and an optional process-wide query tracer.
//
// The package is designed around one constraint: the query hot path in
// internal/core must stay at 0 allocs/op with the global registry enabled.
// Every per-query operation here is therefore a handful of atomic
// instructions on pre-resolved metric pointers — the name-keyed map is only
// consulted at index-build or snapshot time, never per query. Anything that
// needs to format or allocate (span echoes) is gated behind the Armed and
// ActiveTracer fast paths, which are single atomic loads.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use, but callers normally obtain counters from a Registry so they appear
// in snapshots and exports.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (negative deltas are ignored; counters only go up).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (bucket counts, live objects).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add applies a delta; composite owners use deltas so several indexes can
// share one fleet-wide gauge coherently.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the number of exponential buckets: bucket i counts
// observations v with v <= 2^i (cumulatively), the last bucket is +Inf.
// 2^38 ns ≈ 4.5 min, far beyond any query latency; node/ops counts for
// datasets up to ~10^11 fit as well.
const histBuckets = 40

// Histogram is a fixed-shape exponential histogram: power-of-two bucket
// bounds, so Observe is two atomic adds plus a bits.Len64 — no floating
// point, no locks. The shape is shared by every histogram in the registry,
// which is what lets node-visit counts be read directly as the Table 1
// exponents (log2(bucket bound) / log2(N) ≈ 1 - 1/k).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketIdx maps an observation to its bucket: v <= 1 -> 0, otherwise
// ceil(log2(v)), clamped to the +Inf bucket.
func bucketIdx(v int64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(uint64(v - 1)) // ceil(log2(v)) for v >= 2
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIdx(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// HistBucket is one cumulative bucket of a histogram snapshot: Count is the
// number of observations <= Le. The implicit +Inf bucket equals the
// histogram's total Count.
type HistBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistSnapshot is a point-in-time copy of a histogram. Buckets are
// cumulative (Prometheus-style) and trimmed after the last bound that
// reaches the total count, so empty tails don't bloat exports.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// snapshot copies the histogram. Concurrent Observe calls may tear between
// count and buckets; snapshots are monitoring reads, not barriers.
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	var cum int64
	last := -1
	raw := make([]int64, histBuckets)
	for i := 0; i < histBuckets; i++ {
		raw[i] = h.buckets[i].Load()
		if raw[i] != 0 {
			last = i
		}
	}
	if last == histBuckets-1 {
		last = histBuckets - 2 // the final bucket is exported as +Inf, not a bound
	}
	for i := 0; i <= last; i++ {
		cum += raw[i]
		s.Buckets = append(s.Buckets, HistBucket{Le: int64(1) << uint(i), Count: cum})
	}
	return s
}

// Snapshot is a plain-struct copy of a registry, ready for JSON marshalling
// or diffing in tests. Map keys are full series names including labels,
// e.g. `kwsc_queries_total{family="orpkw"}`.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// NumSeries counts the distinct series in the snapshot (each histogram is
// one series; its buckets are not counted separately).
func (s Snapshot) NumSeries() int {
	return len(s.Counters) + len(s.Gauges) + len(s.Histograms)
}

// Counter returns a counter value by full series name (0 if absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge value by full series name (0 if absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Histogram returns a histogram snapshot by full series name.
func (s Snapshot) Histogram(name string) HistSnapshot { return s.Histograms[name] }

// Registry holds named metrics. Lookup/creation takes a mutex; the returned
// metric pointers are then used lock-free, so the per-query cost is
// independent of registry size.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot copies every metric into a plain struct. Series that have never
// been touched (zero counters, empty histograms) are included so exports are
// stable across runs.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// defaultReg is the process-wide registry every instrumented index feeds.
var defaultReg = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultReg }

// Armed-state flags: a single packed word so the hot path can decide
// "is anything observing?" with one atomic load.
const (
	flagMetrics = 1 << iota
	flagTracer
)

var armedFlags atomic.Uint32

func init() { armedFlags.Store(flagMetrics) } // metrics are on by default

func setFlag(bit uint32, on bool) {
	for {
		old := armedFlags.Load()
		nw := old &^ bit
		if on {
			nw = old | bit
		}
		if armedFlags.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Armed reports whether any consumer (metrics, tracer) is active.
// Instrumented entry points skip even the clock read when this is false.
func Armed() bool { return armedFlags.Load() != 0 }

// SetMetricsEnabled turns registry updates on or off globally. Metrics are
// enabled by default; disabling is for overhead measurements.
func SetMetricsEnabled(on bool) { setFlag(flagMetrics, on) }

// MetricsEnabled reports whether registry updates are active.
func MetricsEnabled() bool { return armedFlags.Load()&flagMetrics != 0 }
