package kwsc_test

// Integration tests through the public API only, as a downstream user would
// consume the library.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"kwsc"
)

func buildCatalog(t testing.TB, n int, seed int64) (*kwsc.Dataset, []kwsc.Object) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objs := make([]kwsc.Object, n)
	for i := range objs {
		doc := []kwsc.Keyword{kwsc.Keyword(rng.Intn(10))}
		if rng.Float64() < 0.4 {
			doc = append(doc, kwsc.Keyword(10+rng.Intn(10)))
		}
		if rng.Float64() < 0.3 {
			doc = append(doc, 0, 1)
		}
		objs[i] = kwsc.Object{
			Point: kwsc.Point{rng.Float64() * 100, rng.Float64() * 10},
			Doc:   doc,
		}
	}
	ds, err := kwsc.NewDataset(objs)
	if err != nil {
		t.Fatal(err)
	}
	return ds, objs
}

func oracle(ds *kwsc.Dataset, q kwsc.Region, ws []kwsc.Keyword) []int32 {
	return ds.Filter(q, ws)
}

func idsEqual(t *testing.T, got, want []int32, label string) {
	t.Helper()
	g := append([]int32(nil), got...)
	w := append([]int32(nil), want...)
	sort.Slice(g, func(a, b int) bool { return g[a] < g[b] })
	sort.Slice(w, func(a, b int) bool { return w[a] < w[b] })
	if len(g) != len(w) {
		t.Fatalf("%s: %d results, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: element %d: %d != %d", label, i, g[i], w[i])
		}
	}
}

func TestPublicORPKW(t *testing.T) {
	ds, _ := buildCatalog(t, 800, 1)
	ix, err := kwsc.NewORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := kwsc.NewRect([]float64{20, 2}, []float64{70, 8})
	ws := []kwsc.Keyword{0, 1}
	got, st, err := ix.CollectInto(q, ws, kwsc.QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idsEqual(t, got, oracle(ds, q, ws), "public orpkw")
	if st.Ops == 0 {
		t.Fatal("stats not populated")
	}
	if ix.Space().TotalWords(64) <= 0 {
		t.Fatal("space audit not populated")
	}
}

func TestPublicLCKWAndSimplex(t *testing.T) {
	ds, _ := buildCatalog(t, 600, 2)
	ix, err := kwsc.NewLCKW(ds, kwsc.LCKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := []kwsc.Halfspace{{Coef: []float64{1, 5}, Bound: 80}}
	var got []int32
	if _, err := ix.Query(hs, []kwsc.Keyword{0, 1}, kwsc.QueryOpts{},
		func(id int32) { got = append(got, id) }); err != nil {
		t.Fatal(err)
	}
	idsEqual(t, got, oracle(ds, kwsc.NewPolyhedron(hs...), []kwsc.Keyword{0, 1}), "public lckw")

	tri := kwsc.NewSimplex(kwsc.Point{0, 0}, kwsc.Point{100, 0}, kwsc.Point{0, 10})
	ph, err := tri.Polyhedron()
	if err != nil {
		t.Fatal(err)
	}
	var simGot []int32
	if _, err := ix.Query(ph.HS, []kwsc.Keyword{0, 1}, kwsc.QueryOpts{},
		func(id int32) { simGot = append(simGot, id) }); err != nil {
		t.Fatal(err)
	}
	idsEqual(t, simGot, oracle(ds, ph, []kwsc.Keyword{0, 1}), "public simplex")

	// Paged images: the default Willard substrate has no serializable cells
	// and is refused; a kd LC-KW reopened under mmap and under pread answers
	// exactly as the in-RAM index does.
	dir := t.TempDir()
	if err := kwsc.SavePagedLCKW(filepath.Join(dir, "willard.kwcp"), ix); err == nil {
		t.Fatal("SavePagedLCKW accepted a Willard LC-KW")
	}
	kd, err := kwsc.NewLCKW(ds, kwsc.LCKWConfig{K: 2, Splitter: &kwsc.KDSplitter{Dim: 2}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "kd.kwcp")
	if err := kwsc.SavePagedLCKW(path, kd); err != nil {
		t.Fatal(err)
	}
	queries := [][]kwsc.Halfspace{hs, ph.HS, {{Coef: []float64{-1, 2}, Bound: -20}, {Coef: []float64{1, 0}, Bound: 90}}}
	for mode, o := range map[string]kwsc.PagedFileOptions{"mmap": {}, "pread": {NoMmap: true}} {
		paged, h, err := kwsc.OpenPagedLCKW(path, o)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		for qi, q := range queries {
			want, _, err := kd.CollectInto(q, []kwsc.Keyword{0, 1}, kwsc.QueryOpts{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := paged.CollectInto(q, []kwsc.Keyword{0, 1}, kwsc.QueryOpts{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("query %d matches nothing", qi)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("paged lckw %s query %d: %v, want %v", mode, qi, got, want)
			}
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicSRPKW(t *testing.T) {
	ds, _ := buildCatalog(t, 500, 3)
	ix, err := kwsc.NewSRPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := kwsc.NewSphere(kwsc.Point{50, 5}, 20)
	got, _, err := ix.CollectInto(s, []kwsc.Keyword{0, 1}, kwsc.QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idsEqual(t, got, oracle(ds, s, []kwsc.Keyword{0, 1}), "public srpkw")
}

func TestPublicNearestNeighbors(t *testing.T) {
	ds, _ := buildCatalog(t, 400, 4)
	nn, err := kwsc.NewLinfNN(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := nn.Query(kwsc.Point{50, 5}, 3, []kwsc.Keyword{0, 1}, kwsc.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Skip("no matches in this catalog")
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("results not sorted by distance")
		}
	}
}

func TestPublicRRKW(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rects := make([]kwsc.RectObject, 300)
	for i := range rects {
		a, b := rng.Float64()*10, rng.Float64()
		rects[i] = kwsc.RectObject{
			Rect: kwsc.NewRect([]float64{a}, []float64{a + b}),
			Doc:  []kwsc.Keyword{kwsc.Keyword(rng.Intn(3)), kwsc.Keyword(3 + rng.Intn(3))},
		}
	}
	ix, err := kwsc.NewRRKW(rects, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := kwsc.NewRect([]float64{4}, []float64{6})
	got, _, err := ix.CollectInto(q, []kwsc.Keyword{1, 4}, kwsc.QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []int32
	for i, r := range rects {
		hasBoth := (r.Doc[0] == 1 || r.Doc[1] == 1) && (r.Doc[0] == 4 || r.Doc[1] == 4)
		if hasBoth && r.Rect.Hi[0] >= 4 && r.Rect.Lo[0] <= 6 {
			want = append(want, int32(i))
		}
	}
	idsEqual(t, got, want, "public rrkw")
}

func TestPublicKSI(t *testing.T) {
	sets := [][]int64{
		{1, 2, 3, 4, 5},
		{4, 5, 6, 7},
		{5, 9},
	}
	ix, err := kwsc.NewKSI(sets, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.Report([]kwsc.Keyword{0, 1}, kwsc.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 { // {4, 5}
		t.Fatalf("S0 ∩ S1 has %d elements, want 2", len(got))
	}
	empty, _, err := ix.Empty([]kwsc.Keyword{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if empty { // 5 is shared
		t.Fatal("S0 ∩ S2 is not empty")
	}
}

func TestPublicUniverseAndInfinities(t *testing.T) {
	ds, _ := buildCatalog(t, 200, 6)
	ix, err := kwsc.NewORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.CollectInto(kwsc.Universe(2), []kwsc.Keyword{0, 1}, kwsc.QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idsEqual(t, got, oracle(ds, kwsc.FullSpace{}, []kwsc.Keyword{0, 1}), "universe")
	half := kwsc.NewRect([]float64{50, math.Inf(-1)}, []float64{math.Inf(1), math.Inf(1)})
	got, _, err = ix.CollectInto(half, []kwsc.Keyword{0, 1}, kwsc.QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idsEqual(t, got, oracle(ds, half, []kwsc.Keyword{0, 1}), "half-open")
}

// TestPublicInfinite1D: a 1-D LC-KW and the structured-only baseline over
// points half at -Inf, with +Inf and finite ones beside them, build and
// answer as the oracle does. (When a split placed its plane between two
// values by arithmetic, -Inf beside a finite value made it NaN, every point
// went to one side, and the build recursed until the stack overflowed.)
func TestPublicInfinite1D(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	objs := make([]kwsc.Object, 40)
	for i := range objs {
		x := math.Inf(-1)
		switch {
		case i >= 30:
			x = math.Inf(1)
		case i >= 20:
			x = float64(rng.Intn(9) - 4)
		}
		objs[i] = kwsc.Object{Point: kwsc.Point{x}, Doc: []kwsc.Keyword{kwsc.Keyword(rng.Intn(2)), 2}}
	}
	ds, err := kwsc.NewDataset(objs)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := kwsc.NewLCKW(ds, kwsc.LCKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	so, err := kwsc.NewStructuredOnly(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range [][]kwsc.Keyword{{0, 2}, {1, 2}} {
		for lo := -5; lo <= 5; lo += 2 {
			for _, hs := range [][]kwsc.Halfspace{
				{{Coef: []float64{1}, Bound: float64(lo)}},                                                 // x <= lo
				{{Coef: []float64{-1}, Bound: float64(-lo)}},                                               // x >= lo
				{{Coef: []float64{-1}, Bound: float64(-lo)}, {Coef: []float64{1}, Bound: float64(lo + 3)}}, // lo <= x <= lo+3
			} {
				q := kwsc.NewPolyhedron(hs...)
				want := oracle(ds, q, ws)
				got, _, err := lc.CollectInto(hs, ws, kwsc.QueryOpts{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				idsEqual(t, got, want, fmt.Sprintf("lckw %v %v", hs, ws))
				got, _, _ = so.Query(q, ws)
				idsEqual(t, got, want, fmt.Sprintf("structured-only %v %v", hs, ws))
			}
		}
	}
}

// Indexes are safe for concurrent readers: queries only read. Run many
// goroutines under -race.
func TestPublicConcurrentQueries(t *testing.T) {
	ds, _ := buildCatalog(t, 1000, 7)
	ix, err := kwsc.NewORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := kwsc.NewRect([]float64{10, 1}, []float64{90, 9})
	want := oracle(ds, q, []kwsc.Keyword{0, 1})
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				got, _, err := ix.CollectInto(q, []kwsc.Keyword{0, 1}, kwsc.QueryOpts{}, nil)
				if err != nil {
					done <- err
					return
				}
				if len(got) != len(want) {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent result mismatch" }

// Touch every extension constructor through the public API.
func TestPublicExtensions(t *testing.T) {
	ds, _ := buildCatalog(t, 300, 8)

	// Dynamic index.
	dyn, err := kwsc.NewDynamicORPKW(2, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	h, err := dyn.Insert(kwsc.Object{Point: kwsc.Point{1, 1}, Doc: []kwsc.Keyword{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	ids, _, err := collectHandles(dyn, kwsc.Universe(2), []kwsc.Keyword{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != h {
		t.Fatalf("dynamic query = %v", ids)
	}

	// Vocabulary.
	v := kwsc.NewVocabulary()
	doc := v.Doc("pool", "spa")
	if len(doc) != 2 || v.Len() != 2 {
		t.Fatal("vocabulary broken")
	}

	// Codec round trip.
	var buf bytes.Buffer
	if err := kwsc.WriteDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := kwsc.ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != ds.Len() || back.N() != ds.N() {
		t.Fatal("codec round trip changed the dataset")
	}

	// Count/Empty.
	ix, err := kwsc.NewORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := kwsc.NewRect([]float64{0, 0}, []float64{100, 10})
	want2 := oracle(ds, q, []kwsc.Keyword{0, 1})
	n, _, err := kwsc.Count(ix, q, []kwsc.Keyword{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want2) {
		t.Fatalf("Count = %d, want %d", n, len(want2))
	}
	empty, _, err := kwsc.Empty(ix, q, []kwsc.Keyword{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if empty != (len(want2) == 0) {
		t.Fatalf("Empty = %v with %d results", empty, len(want2))
	}
}

// PolicyFromContext bounds a query by its context: a canceled context stops
// it with ErrCanceled, an expired one with ErrDeadline (its Done is closed
// too), and a context that can never stop yields a policy that bounds
// nothing.
func TestPolicyFromContext(t *testing.T) {
	ds, _ := buildCatalog(t, 2000, 12)
	ix, err := kwsc.NewORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := kwsc.NewRect([]float64{0, 0}, []float64{100, 10})
	ws := []kwsc.Keyword{0, 1}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	for _, c := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"canceled", canceled, kwsc.ErrCanceled},
		{"expired", expired, kwsc.ErrDeadline},
	} {
		_, st, err := ix.CollectInto(q, ws, kwsc.QueryOpts{Policy: kwsc.PolicyFromContext(c.ctx)}, nil)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if !st.Truncated {
			t.Errorf("%s: stop without Truncated", c.name)
		}
	}
	p := kwsc.PolicyFromContext(context.Background())
	if !p.Deadline.IsZero() || p.Done != nil {
		t.Fatalf("Background policy = %+v, want zero Deadline and nil Done", p)
	}
	got, _, err := ix.CollectInto(q, ws, kwsc.QueryOpts{Policy: p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idsEqual(t, got, oracle(ds, q, ws), "Background policy")
}

// Example demonstrates the paper's introductory query end to end.
func Example() {
	const (
		pool kwsc.Keyword = iota
		parking
		petFriendly
	)
	objs := []kwsc.Object{
		{Point: kwsc.Point{120, 8.7}, Doc: []kwsc.Keyword{pool, parking, petFriendly}},
		{Point: kwsc.Point{310, 9.4}, Doc: []kwsc.Keyword{pool}},
		{Point: kwsc.Point{150, 8.2}, Doc: []kwsc.Keyword{pool, parking, petFriendly}},
		{Point: kwsc.Point{60, 6.1}, Doc: []kwsc.Keyword{parking}},
	}
	ds, _ := kwsc.NewDataset(objs)
	ix, _ := kwsc.NewORPKW(ds, 3)
	// price in [100, 200], rating >= 8, all three amenity tags.
	ids, _, _ := ix.CollectInto(
		kwsc.NewRect([]float64{100, 8}, []float64{200, math.Inf(1)}),
		[]kwsc.Keyword{pool, parking, petFriendly},
		kwsc.QueryOpts{}, nil)

	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	fmt.Println(ids)
	// Output: [0 2]
}
