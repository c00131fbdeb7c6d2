package kwsc_test

// End-to-end observability through the public facade: exercising several
// index families populates the registry with enough distinct series that
// both export formats write alike, and the global tracer sees every
// query with its echo.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"kwsc"
)

func buildObsFixture(t *testing.T) (*kwsc.Dataset, *kwsc.ORPKW) {
	t.Helper()
	objs := make([]kwsc.Object, 0, 256)
	for i := 0; i < 256; i++ {
		objs = append(objs, kwsc.Object{
			Point: kwsc.Point{float64(i % 16), float64(i / 16)},
			Doc:   []kwsc.Keyword{0, kwsc.Keyword(1 + i%3), kwsc.Keyword(4 + i%5)},
		})
	}
	ds, err := kwsc.NewDataset(objs)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := kwsc.NewORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ds, ix
}

func TestMetricsSnapshotRoundTrips(t *testing.T) {
	ds, ix := buildObsFixture(t)
	// Touch several families so the registry is populated.
	if _, _, err := ix.CollectInto(kwsc.Universe(2), []kwsc.Keyword{0, 1}, kwsc.QueryOpts{}, nil); err != nil {
		t.Fatal(err)
	}
	nn, err := kwsc.NewLinfNN(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := nn.Query(kwsc.Point{8, 8}, 3, []kwsc.Keyword{0, 1}, kwsc.QueryOpts{}); err != nil {
		t.Fatal(err)
	}
	ksi, err := kwsc.NewKSIFromDataset(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ksi.Report([]kwsc.Keyword{0, 1}, kwsc.QueryOpts{}); err != nil {
		t.Fatal(err)
	}

	snap := kwsc.Metrics()
	if n := snap.NumSeries(); n < 12 {
		t.Fatalf("registry has %d series, want >= 12", n)
	}
	if snap.Counter(`kwsc_queries_total{family="orpkw"}`) == 0 {
		t.Fatal("orpkw queries_total must be non-zero after a query")
	}
	if snap.Histogram(`kwsc_query_ops{family="ksi"}`).Count == 0 {
		t.Fatal("ksi ops histogram must have observations")
	}

	var jbuf bytes.Buffer
	if err := kwsc.WriteMetricsJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	var fromJSON kwsc.MetricsSnapshot
	if err := json.Unmarshal(jbuf.Bytes(), &fromJSON); err != nil {
		t.Fatal(err)
	}
	var pbuf bytes.Buffer
	if err := kwsc.WriteMetricsPrometheus(&pbuf); err != nil {
		t.Fatal(err)
	}

	// Both exports write the same registry state: every counter and gauge
	// the JSON holds is one exposition line of the same value. (The
	// registry does not move between the two writes: this package runs no
	// test in parallel.)
	if fromJSON.NumSeries() < 12 {
		t.Fatalf("JSON export has %d series, want >= 12", fromJSON.NumSeries())
	}
	lines := map[string]bool{}
	for _, l := range strings.Split(pbuf.String(), "\n") {
		lines[l] = true
	}
	for _, series := range []map[string]int64{fromJSON.Counters, fromJSON.Gauges} {
		for name, v := range series {
			if l := fmt.Sprintf("%s %d", name, v); !lines[l] {
				t.Fatalf("Prometheus export lacks %q", l)
			}
		}
	}
	if !lines["# TYPE kwsc_queries_total counter"] {
		t.Fatal("Prometheus export must carry TYPE comments")
	}
}

type facadeTracer struct {
	mu    sync.Mutex
	spans []kwsc.Span
}

func (f *facadeTracer) End(sp kwsc.Span) {
	f.mu.Lock()
	f.spans = append(f.spans, sp)
	f.mu.Unlock()
}

func TestGlobalTracer(t *testing.T) {
	_, ix := buildObsFixture(t)
	tr := &facadeTracer{}
	kwsc.SetTracer(tr)
	defer kwsc.SetTracer(nil)

	ids, st, err := ix.CollectInto(kwsc.Universe(2), []kwsc.Keyword{0, 1}, kwsc.QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) != 1 {
		t.Fatalf("global tracer saw %d spans, want 1", len(tr.spans))
	}
	sp := tr.spans[0]
	if sp.Family != "orpkw" || sp.Out != len(ids) || sp.Ops != st.Ops || sp.Outcome != kwsc.OutcomeOK {
		t.Fatalf("span disagrees with the query result: %+v", sp)
	}
	if !strings.Contains(sp.Query, "keywords=[0 1]") {
		t.Fatalf("span must echo the query: %q", sp.Query)
	}
}

func TestConstructorsRejectBadDatasets(t *testing.T) {
	empty := &kwsc.Dataset{}
	wantInvalid := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, kwsc.ErrInvalidDataset) {
			t.Fatalf("%s: got %v, want ErrInvalidDataset", what, err)
		}
	}
	_, err := kwsc.NewInvertedIndex(nil)
	wantInvalid("NewInvertedIndex(nil)", err)
	_, err = kwsc.NewStructuredOnly(empty)
	wantInvalid("NewStructuredOnly(empty)", err)
	_, err = kwsc.NewORPKW(nil, 2)
	wantInvalid("NewORPKW(nil)", err)
}
