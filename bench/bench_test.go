package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"kwsc"
)

func TestPercentile(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// A slice timed while the probe took twice its reference time ran on a host
// half as fast: every duration of that slice halves before it is pooled, and
// the pooled percentiles are taken over all slices together.
func TestSpeedFactorAndPooling(t *testing.T) {
	if f := speedFactor(2*probeRefUs, 2*probeRefUs); f != 0.5 {
		t.Fatalf("speedFactor at 2x probe time = %v, want 0.5", f)
	}
	if f := speedFactor(probeRefUs/2, probeRefUs*3/2); f != 1 {
		t.Fatalf("speedFactor uses the mean of the two probes: got %v, want 1", f)
	}
	var p pool
	p.add([]float64{100, 200}, speedFactor(probeRefUs, probeRefUs))
	p.add([]float64{200, 400}, speedFactor(2*probeRefUs, 2*probeRefUs))
	if want := []float64{100, 200, 100, 200}; !reflect.DeepEqual(p.corrected, want) {
		t.Errorf("corrected pool = %v, want %v", p.corrected, want)
	}
	if want := []float64{100, 200, 200, 400}; !reflect.DeepEqual(p.raw, want) {
		t.Errorf("raw pool = %v, want %v", p.raw, want)
	}
	if got := median(p.corrected); got != 150 {
		t.Errorf("pooled median = %v, want 150", got)
	}
}

// iqrShare must agree with Python's statistics.quantiles(v, n=4), which the
// acceptance driver uses: for 1..10 the quartiles are 2.75 and 8.25.
func TestIQRShare(t *testing.T) {
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := iqrShare(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestOracleCheck(t *testing.T) {
	o := newOracle()
	for i := 0; i < 10; i++ {
		o.insert(int64(i), kwsc.Object{Point: kwsc.Point{float64(i), 0}, Doc: []kwsc.Keyword{1, 2}})
	}
	o.insert(10, kwsc.Object{Point: kwsc.Point{3, 0}, Doc: []kwsc.Keyword{1}})
	o.remove(4)
	q := &kwsc.QueryRequest{Rect: &kwsc.RectWire{Lo: []float64{2, 0}, Hi: []float64{7, 0}}, Keywords: []kwsc.Keyword{1, 2}}
	if err := o.check(q, []int64{2, 3, 5, 6, 7}); err != nil {
		t.Errorf("exact answer rejected: %v", err)
	}
	if err := o.check(q, []int64{2, 3, 4, 5, 6, 7}); err == nil {
		t.Error("a deleted id was accepted")
	}
	if err := o.check(q, []int64{2, 3, 5, 6}); err == nil {
		t.Error("a short answer was accepted without a limit")
	}
	q.Limit = 3
	if err := o.check(q, []int64{3, 5, 7}); err != nil {
		t.Errorf("3 ascending matches rejected under limit 3: %v", err)
	}
	for _, bad := range [][]int64{{3, 5}, {5, 3, 7}, {3, 3, 7}, {3, 4, 7}, {2, 3, 5, 6}} {
		if err := o.check(q, bad); err == nil {
			t.Errorf("answer %v accepted under limit 3", bad)
		}
	}
}

func testConfig(t *testing.T, scale float64) *runConfig {
	dir := t.TempDir()
	probe, err := newProber()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(probe.close)
	return &runConfig{seed: 1, seconds: defaultSeconds, dataRoot: dir, outDir: dir, scale: scale, log: t.Logf, probe: probe}
}

// All four workloads end to end at 1/100 of their size: every op answered,
// none failed, every end-to-end metric present and positive.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, spec := range specs() {
		rep, err := runTimed(spec, testConfig(t, 0.01))
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", spec.name, rep.Correct, rep.Attempted, rep.Failed)
		}
		for _, d := range endToEnd {
			if m, ok := rep.Metrics[d.Name]; !ok || !(m.Value > 0) || m.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v", spec.name, d.Name, m)
			}
		}
	}
}

func TestCorruptedOracleFailsTheRun(t *testing.T) {
	cfg := testConfig(t, 0.01)
	cfg.corruptOracle = true
	rep, err := runTimed(heavyCore, cfg)
	if err == nil || rep == nil || rep.Correct || rep.Failed == 0 {
		t.Fatalf("corrupted oracle went unnoticed: report %+v, err %v", rep, err)
	}
}

// The counts a later change may cite repeat exactly for one seed, and the
// traced run's layer shares keep the shape the workloads were sized for.
func TestTracedCountsRepeat(t *testing.T) {
	// serve.resp_bytes is not among them: every response carries elapsed_us,
	// whose digits vary.
	exact := []string{"core.nodes_per_query", "core.ops_per_query", "core.results_per_query",
		"wal.appends", "wal.checkpoints", "serve.req_bytes", "trace.ops"}
	for _, c := range []struct {
		spec  *workloadSpec
		scale float64
	}{{tinyScatter, 0.01}, {rwMixed, 0.1}, {pagedCold, 0.02}} {
		first, err := runTraced(c.spec, testConfig(t, c.scale))
		if err != nil {
			t.Fatalf("%s: %v", c.spec.name, err)
		}
		second, err := runTraced(c.spec, testConfig(t, c.scale))
		if err != nil {
			t.Fatalf("%s: %v", c.spec.name, err)
		}
		if first.Failed != 0 || second.Failed != 0 {
			t.Errorf("%s: failed ops: %d, %d", c.spec.name, first.Failed, second.Failed)
		}
		for _, name := range exact {
			if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
				t.Errorf("%s: %s differs between two runs of one seed: %v vs %v", c.spec.name, name, a, b)
			}
		}
		for _, d := range perLayer {
			if _, ok := first.Metrics[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", c.spec.name, d.Name)
			}
		}
		m := first.Metrics
		switch c.spec {
		case rwMixed:
			if m["wal.appends"].Value == 0 || m["serve.write_us"].Value == 0 || m["client.write_p50_us"].Value == 0 {
				t.Errorf("rw-mixed: appends %v, serve.write_us %v, client.write_p50_us %v", m["wal.appends"].Value, m["serve.write_us"].Value, m["client.write_p50_us"].Value)
			}
		case pagedCold:
			if m["pager.pin_hits"].Value+m["pager.pin_misses"].Value == 0 || m["pager.cold_open_ms"].Value == 0 {
				t.Errorf("paged-cold: pager idle: %+v", m)
			}
		}
		if c.spec != pagedCold && m["pager.pin_hits"].Value+m["pager.pin_misses"].Value != 0 {
			t.Errorf("%s: pager counters moved without a paged base", c.spec.name)
		}
	}
}

// BENCHMARK.json repeats the tables of metrics.go and workloads.go.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the op counts are tuned for %d", bj.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", bj.PerLayer, perLayer)
	}
	if len(bj.Workloads) != len(specs()) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bj.Workloads), len(specs()))
	}
	for i, s := range specs() {
		if bj.Workloads[i].Name != s.name || bj.Workloads[i].Why != s.why {
			t.Errorf("workload %d: json %+v, code %s: %s", i, bj.Workloads[i], s.name, s.why)
		}
	}
}
