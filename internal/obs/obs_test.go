package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	if r.Counter("c_total") != c {
		t.Fatal("Counter must return the same pointer for the same name")
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 20}, {1<<20 + 1, 21}, {1 << 62, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIdx(c.v); got != c.want {
			t.Errorf("bucketIdx(%d) = %d, want %d", c.v, got, c.want)
		}
	}

	var h Histogram
	h.Observe(1)
	h.Observe(3)
	h.Observe(3)
	h.Observe(100)
	s := h.snapshot()
	if s.Count != 4 || s.Sum != 107 {
		t.Fatalf("count/sum = %d/%d, want 4/107", s.Count, s.Sum)
	}
	// Buckets are cumulative: le=1 holds 1, le=4 holds 3, le=128 holds 4.
	find := func(le int64) int64 {
		for _, b := range s.Buckets {
			if b.Le == le {
				return b.Count
			}
		}
		t.Fatalf("no bucket le=%d in %+v", le, s.Buckets)
		return 0
	}
	if find(1) != 1 || find(4) != 3 || find(128) != 4 {
		t.Fatalf("cumulative buckets wrong: %+v", s.Buckets)
	}
	if last := s.Buckets[len(s.Buckets)-1]; last.Le != 128 {
		t.Fatalf("buckets not trimmed after last non-zero: %+v", s.Buckets)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("queries_total")
	c.Add(3)
	r.Gauge("buckets").Set(2)
	r.Histogram("lat").Observe(10)

	s := r.Snapshot()
	if s.Counter("queries_total") != 3 || s.Gauge("buckets") != 2 || s.Histogram("lat").Count != 1 {
		t.Fatalf("snapshot mismatch: %+v", s)
	}
	if s.NumSeries() != 3 {
		t.Fatalf("NumSeries = %d, want 3", s.NumSeries())
	}
}

// TestJSONRoundTrip: both JSON forms decode, with encoding/json, back to the
// snapshot written.
func TestJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter(`q_total{family="orpkw"}`).Add(11)
	r.Gauge("live").Set(-4)
	h := r.Histogram(`lat_ns{family="orpkw"}`)
	h.Observe(5)
	h.Observe(900)
	s := r.Snapshot()

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	compact, err := s.MarshalCompact()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsRune(compact, '\n') {
		t.Fatal("compact form must be a single line")
	}
	for name, data := range map[string][]byte{"indented": buf.Bytes(), "compact": compact} {
		var back Snapshot
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("%s JSON round-trip mismatch:\n got %+v\nwant %+v", name, back, s)
		}
	}
}

// TestPrometheusRoundTrip: the exposition text of counters, gauges and
// histograms, with and without labels, line for line.
// TestPrometheusRoundTrip: the exposition text of counters, gauges and
// histograms, with and without labels, line for line.
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter(`kwsc_queries_total{family="orpkw"}`).Add(5)
	r.Counter(`kwsc_queries_total{family="rrkw"}`).Add(4)
	r.Counter(`kwsc_query_errors_total{family="orpkw",code="budget"}`).Inc()
	r.Counter("kwsc_fallbacks_total") // untouched series are written too
	r.Gauge("kwsc_dynamic_buckets").Set(5)
	r.Gauge("kwsc_dynamic_live_objects").Set(-1234)
	r.Histogram(`kwsc_query_ops{family="orpkw"}`).Observe(3)
	r.Histogram("kwsc_recovery_ns").Observe(1)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE kwsc_fallbacks_total counter
kwsc_fallbacks_total 0
# TYPE kwsc_queries_total counter
kwsc_queries_total{family="orpkw"} 5
kwsc_queries_total{family="rrkw"} 4
# TYPE kwsc_query_errors_total counter
kwsc_query_errors_total{family="orpkw",code="budget"} 1
# TYPE kwsc_dynamic_buckets gauge
kwsc_dynamic_buckets 5
# TYPE kwsc_dynamic_live_objects gauge
kwsc_dynamic_live_objects -1234
# TYPE kwsc_query_ops histogram
kwsc_query_ops_bucket{family="orpkw",le="1"} 0
kwsc_query_ops_bucket{family="orpkw",le="2"} 0
kwsc_query_ops_bucket{family="orpkw",le="4"} 1
kwsc_query_ops_bucket{family="orpkw",le="+Inf"} 1
kwsc_query_ops_sum{family="orpkw"} 3
kwsc_query_ops_count{family="orpkw"} 1
# TYPE kwsc_recovery_ns histogram
kwsc_recovery_ns_bucket{le="1"} 1
kwsc_recovery_ns_bucket{le="+Inf"} 1
kwsc_recovery_ns_sum 1
kwsc_recovery_ns_count 1
`
	if got := buf.String(); got != want {
		t.Fatalf("Prometheus text:\n%s\nwant:\n%s", got, want)
	}
}

type captureTracer struct {
	mu    sync.Mutex
	spans []Span
}

func (c *captureTracer) End(sp Span) {
	c.mu.Lock()
	c.spans = append(c.spans, sp)
	c.mu.Unlock()
}

func TestSetTracerArming(t *testing.T) {
	SetMetricsEnabled(false)
	defer func() {
		SetTracer(nil)
		SetMetricsEnabled(true)
	}()
	if Armed() {
		t.Fatal("nothing should be armed with metrics off and no tracer")
	}
	tr := &captureTracer{}
	SetTracer(tr)
	if !Armed() || ActiveTracer() == nil {
		t.Fatal("tracer must arm the layer")
	}
	SetTracer(nil)
	if Armed() || ActiveTracer() != nil {
		t.Fatal("nil must disarm the tracer")
	}
}

func TestConcurrentMetricsAndTracer(t *testing.T) {
	r := NewRegistry()
	tr := &captureTracer{}
	SetTracer(tr)
	defer SetTracer(nil)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("c_total")
			h := r.Histogram("h")
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
				if g := ActiveTracer(); g != nil {
					g.End(Span{Ops: int64(i)})
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { // concurrent snapshots and flag flips
		defer close(done)
		for i := 0; i < 100; i++ {
			r.Snapshot()
			SetMetricsEnabled(i%2 == 0)
		}
	}()
	wg.Wait()
	<-done
	SetMetricsEnabled(true)

	if got := r.Counter("c_total").Load(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if len(tr.spans) != 8000 {
		t.Fatalf("tracer saw %d spans, want 8000", len(tr.spans))
	}
}
