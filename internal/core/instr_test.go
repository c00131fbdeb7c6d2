package core

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/obs"
	"kwsc/internal/workload"
)

// famSeries builds the full series names for one family label.
func famSeries(fam string) (queries, ops string) {
	return `kwsc_queries_total{family="` + fam + `"}`, `kwsc_query_ops{family="` + fam + `"}`
}

func errSeries(fam, code string) string {
	return `kwsc_query_errors_total{family="` + fam + `",code="` + code + `"}`
}

// registryDelta runs fn and returns the change of every counter and the
// count/sum change of every histogram in the default registry.
func registryDelta(fn func()) (counters map[string]int64, histCount map[string]int64, histSum map[string]int64) {
	before := obs.Default().Snapshot()
	fn()
	after := obs.Default().Snapshot()
	counters = make(map[string]int64)
	for name, v := range after.Counters {
		if d := v - before.Counters[name]; d != 0 {
			counters[name] = d
		}
	}
	histCount = make(map[string]int64)
	histSum = make(map[string]int64)
	for name, h := range after.Histograms {
		if d := h.Count - before.Histograms[name].Count; d != 0 {
			histCount[name] = d
		}
		if d := h.Sum - before.Histograms[name].Sum; d != 0 {
			histSum[name] = d
		}
	}
	return
}

// The central cross-family invariant: one user-visible query increments
// exactly one family's queries_total, the ops histogram absorbs exactly the
// Ops figure the query's own QueryStats reported, and the process-wide
// tracer sees exactly one span carrying the same figure — composites (RRKW
// over ORPKWHigh, NN probes, KSI's inner ORP-KW, dynamic buckets) must not
// double-count through their inner structures.
func TestRegistryCountsEachFamilyOnce(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 61, Objects: 1 << 10, Dim: 2, Vocab: 32, DocLen: 4})
	ds3 := workload.Gen(workload.Config{Seed: 61, Objects: 1 << 10, Dim: 3, Vocab: 32, DocLen: 4})
	grid := workload.Gen(workload.Config{Seed: 61, Objects: 1 << 10, Dim: 2, Vocab: 32, DocLen: 4, Points: "grid", GridSide: 64})
	q := geom.UniverseRect(2)
	ws := []dataset.Keyword{1, 2}

	orp, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	high, err := BuildORPKWHigh(ds3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rects := make([]RectObject, ds.Len())
	for i := range rects {
		p := ds.Point(int32(i))
		rects[i] = RectObject{Rect: geom.NewRect([]float64{p[0], p[1]}, []float64{p[0] + 0.05, p[1] + 0.05}), Doc: ds.Doc(int32(i))}
	}
	rr, err := BuildRRKW(rects, 2)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := BuildSPKW(ds, SPKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	nn, err := BuildLinfNN(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := BuildL2NN(grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	srp, err := BuildSRPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	ksi, err := BuildKSIFromDataset(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewDynamicORPKW(2, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Len(); i++ {
		if _, err := dyn.Insert(*ds.Object(int32(i))); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		fam string
		run func() int64 // returns QueryStats.Ops
	}{
		{"orpkw", func() int64 {
			_, st, err := orp.CollectInto(q, ws, QueryOpts{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return st.Ops
		}},
		{"orpkw_high", func() int64 {
			_, st, err := high.CollectInto(geom.UniverseRect(3), ws, QueryOpts{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return st.Ops
		}},
		{"rrkw", func() int64 {
			_, st, err := rr.CollectInto(geom.NewRect([]float64{0.2, 0.2}, []float64{0.7, 0.7}), ws, QueryOpts{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return st.Ops
		}},
		{"lckw", func() int64 {
			hs := []geom.Halfspace{{Coef: []float64{1, 1}, Bound: 1}}
			_, st, err := lc.CollectInto(hs, ws, QueryOpts{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return st.Ops
		}},
		{"linf_nn", func() int64 {
			_, ns, err := nn.Query(geom.Point{0.5, 0.5}, 3, ws, QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			return ns.Ops
		}},
		{"l2_nn", func() int64 {
			_, ns, err := l2.Query(geom.Point{32, 32}, 3, ws, QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			return ns.Ops
		}},
		{"srpkw", func() int64 {
			_, st, err := srp.CollectInto(geom.NewSphere(geom.Point{0.5, 0.5}, 0.3), ws, QueryOpts{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return st.Ops
		}},
		{"ksi", func() int64 {
			_, st, err := ksi.Report(ws, QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			return st.Ops
		}},
		{"dynamic", func() int64 {
			_, st, err := collectHandles(dyn, q, ws)
			if err != nil {
				t.Fatal(err)
			}
			return st.Ops
		}},
	}
	defer obs.SetTracer(nil)
	for _, c := range cases {
		var ops int64
		tr := &spanTracer{}
		obs.SetTracer(tr)
		counters, histCount, histSum := registryDelta(func() { ops = c.run() })
		obs.SetTracer(nil)
		qSeries, opsSeries := famSeries(c.fam)
		if counters[qSeries] != 1 {
			t.Errorf("[%s] queries_total delta = %d, want 1 (all deltas: %v)",
				c.fam, counters[qSeries], counters)
		}
		// No other family's query counter may move: counted exactly once.
		for name, d := range counters {
			if strings.HasPrefix(name, "kwsc_queries_total{") && name != qSeries {
				t.Errorf("[%s] foreign counter %s moved by %d", c.fam, name, d)
			}
		}
		if histCount[opsSeries] != 1 || histSum[opsSeries] != ops {
			t.Errorf("[%s] ops histogram delta count=%d sum=%d, want count=1 sum=%d (QueryStats.Ops)",
				c.fam, histCount[opsSeries], histSum[opsSeries], ops)
		}
		if lat := `kwsc_query_latency_ns{family="` + c.fam + `"}`; histCount[lat] != 1 {
			t.Errorf("[%s] latency histogram delta count=%d, want 1", c.fam, histCount[lat])
		}
		if len(tr.spans) != 1 {
			t.Errorf("[%s] tracer saw %d spans, want 1: %+v", c.fam, len(tr.spans), tr.spans)
		} else if sp := tr.spans[0]; sp.Family != c.fam || sp.Ops != ops {
			t.Errorf("[%s] span family=%q ops=%d, want family=%q ops=%d (QueryStats.Ops)",
				c.fam, sp.Family, sp.Ops, c.fam, ops)
		}
	}
}

// Error counters must agree with the typed error the caller saw, including
// a panic converted at the entry point.
func TestErrorCountersMatchTypedErrors(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 62, Objects: 1 << 10, Dim: 2, Vocab: 32, DocLen: 4})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	ws := []dataset.Keyword{1, 2}

	counters, _, _ := registryDelta(func() {
		_, _, err := ix.CollectInto(nil, ws, QueryOpts{}, nil)
		if !errors.Is(err, ErrInvalidQuery) {
			t.Fatalf("want ErrInvalidQuery, got %v", err)
		}
	})
	if counters[errSeries("orpkw", "invalid")] != 1 {
		t.Errorf("invalid-query counter delta = %d, want 1", counters[errSeries("orpkw", "invalid")])
	}

	counters, _, _ = registryDelta(func() {
		_, _, err := ix.CollectInto(geom.UniverseRect(2), ws, QueryOpts{Policy: ExecPolicy{NodeBudget: 1}}, nil)

		if !errors.Is(err, ErrBudget) {
			t.Fatalf("want ErrBudget, got %v", err)
		}
	})
	if counters[errSeries("orpkw", "budget")] != 1 {
		t.Errorf("budget counter delta = %d, want 1", counters[errSeries("orpkw", "budget")])
	}

	ArmFailpoint(FPFrameworkVisit, func() { panic("instr test") })
	counters, _, _ = registryDelta(func() {
		_, _, err := ix.CollectInto(geom.UniverseRect(2), ws, QueryOpts{}, nil)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("want *PanicError, got %v", err)
		}
	})
	DisarmAllFailpoints()
	if counters[errSeries("orpkw", "panic")] != 1 {
		t.Errorf("panic counter delta = %d, want 1", counters[errSeries("orpkw", "panic")])
	}
	// The failed queries still count as queries.
	qSeries, _ := famSeries("orpkw")
	if counters[qSeries] != 1 {
		t.Errorf("queries_total delta = %d during panic, want 1", counters[qSeries])
	}
}

// Builds are counted once per user-visible constructor; the inner structures
// a composite builds must not inflate any family's build counter.
func TestBuildCountersCountedOnce(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 63, Objects: 1 << 9, Dim: 2, Vocab: 16, DocLen: 3})
	counters, histCount, _ := registryDelta(func() {
		if _, err := BuildLinfNN(ds, 2); err != nil { // builds an inner ORPKW
			t.Fatal(err)
		}
	})
	if counters[`kwsc_builds_total{family="linf_nn"}`] != 1 {
		t.Errorf("linf_nn builds delta = %d, want 1", counters[`kwsc_builds_total{family="linf_nn"}`])
	}
	if counters[`kwsc_builds_total{family="orpkw"}`] != 0 {
		t.Errorf("inner orpkw build leaked into builds_total (delta %d)",
			counters[`kwsc_builds_total{family="orpkw"}`])
	}
	if histCount[`kwsc_build_ns{family="linf_nn"}`] != 1 {
		t.Error("build latency histogram must record the build")
	}
}

// WithoutObs must make an index invisible: no counters move, no spans fire.
func TestWithoutObsSilencesIndex(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 64, Objects: 1 << 9, Dim: 2, Vocab: 16, DocLen: 3})
	tr := &spanTracer{}
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)
	var ix *ORPKW
	counters, _, _ := registryDelta(func() {
		var err error
		ix, err = BuildORPKW(ds, 2, WithoutObs())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ix.CollectInto(geom.UniverseRect(2), []dataset.Keyword{1, 2}, QueryOpts{}, nil); err != nil {
			t.Fatal(err)
		}
	})
	for name, d := range counters {
		if strings.HasPrefix(name, "kwsc_queries_total") || strings.HasPrefix(name, "kwsc_builds_total") {
			t.Errorf("WithoutObs index moved %s by %d", name, d)
		}
	}
	if len(tr.spans) != 0 {
		t.Errorf("WithoutObs index emitted %d spans: %+v", len(tr.spans), tr.spans)
	}
}

// spanTracer records spans for assertions.
type spanTracer struct {
	mu    sync.Mutex
	spans []obs.Span
}

func (s *spanTracer) End(sp obs.Span) {
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
}

// The process-wide tracer sees one span per query, with the stats the
// caller got and the query echoed PanicError-style, so it can be replayed.
func TestTracerSpans(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 65, Objects: 1 << 10, Dim: 2, Vocab: 32, DocLen: 4})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := &spanTracer{}
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)
	q := workload.RandRect(rand.New(rand.NewSource(65)), 2, 0.5)
	ws := []dataset.Keyword{1, 2}
	ids, st, err := ix.CollectInto(q, ws, QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(tr.spans))
	}
	sp := tr.spans[0]
	if sp.Family != "orpkw" || sp.Op != "CollectInto" || sp.K != 2 {
		t.Fatalf("span identity wrong: %+v", sp)
	}
	if sp.Ops != st.Ops || sp.Out != len(ids) || sp.Outcome != obs.OutcomeOK {
		t.Fatalf("span stats disagree with QueryStats: %+v vs %+v", sp, st)
	}
	if !strings.Contains(sp.Query, "region=") || !strings.Contains(sp.Query, "keywords=[1 2]") {
		t.Fatalf("span must echo the query for reproduction, got %q", sp.Query)
	}
}

// Dynamic-index churn counters and fleet gauges stay coherent across
// inserts, deletes and queries.
func TestDynamicGaugesStayCoherent(t *testing.T) {
	counters, _, _ := registryDelta(func() {
		d, err := NewDynamicORPKW(2, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := d.Insert(dataset.Object{
				Point: geom.Point{float64(i), float64(i)},
				Doc:   []dataset.Keyword{1, 2},
			}); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := collectHandles(d, geom.UniverseRect(2), []dataset.Keyword{1, 2}); err != nil {
			t.Fatal(err)
		}
	})
	if counters["kwsc_dynamic_inserts_total"] != 20 {
		t.Errorf("inserts delta = %d, want 20", counters["kwsc_dynamic_inserts_total"])
	}
	if counters["kwsc_dynamic_carries_total"] == 0 {
		t.Error("20 inserts through a 4-slot buffer must carry at least once")
	}
	qSeries, _ := famSeries("dynamic")
	if counters[qSeries] != 1 {
		t.Errorf("dynamic queries_total delta = %d, want 1", counters[qSeries])
	}
	// Bucket scans are inner untagged ORPKW builds/queries: orpkw untouched.
	if counters[`kwsc_queries_total{family="orpkw"}`] != 0 {
		t.Error("dynamic bucket queries leaked into orpkw counters")
	}
}

// EnableMetrics(false) must freeze the registry without breaking queries.
func TestMetricsDisableFreezesRegistry(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 69, Objects: 1 << 9, Dim: 2, Vocab: 16, DocLen: 3})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	obs.SetMetricsEnabled(false)
	defer obs.SetMetricsEnabled(true)
	counters, histCount, _ := registryDelta(func() {
		if _, _, err := ix.CollectInto(geom.UniverseRect(2), []dataset.Keyword{1, 2}, QueryOpts{}, nil); err != nil {
			t.Fatal(err)
		}
	})
	if len(counters) != 0 || len(histCount) != 0 {
		t.Fatalf("registry moved with metrics disabled: %v %v", counters, histCount)
	}
}
