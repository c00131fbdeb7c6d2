package core

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/workload"
)

// assertPrefix fails unless partial is exactly the first len(partial)
// elements of full, in order — the contract of every policy stop on a
// deterministic traversal.
func assertPrefix(t *testing.T, partial, full []int32, label string) {
	t.Helper()
	if len(partial) > len(full) {
		t.Fatalf("%s: partial answer longer (%d) than full answer (%d)", label, len(partial), len(full))
	}
	for i := range partial {
		if partial[i] != full[i] {
			t.Fatalf("%s: partial[%d] = %d, full[%d] = %d: not a prefix", label, i, partial[i], i, full[i])
		}
	}
}

func TestPanicIsolationFramework(t *testing.T) {
	defer DisarmAllFailpoints()
	ds := workload.Gen(workload.Config{Seed: 11, Objects: 400, Dim: 2, Vocab: 20, DocLen: 4})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.UniverseRect(2)
	ws := []dataset.Keyword{1, 2}

	ArmFailpoint(FPFrameworkVisit, func() { panic("injected traversal corruption") })
	_, _, err = ix.Collect(q, ws, QueryOpts{})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("armed panic surfaced as %v, want *PanicError", err)
	}
	if pe.Op == "" || pe.Query == "" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError missing context: %+v", pe)
	}
	if pe.Val != "injected traversal corruption" {
		t.Fatalf("PanicError.Val = %v", pe.Val)
	}

	// Disarming restores normal service on the same index: the panic left no
	// poisoned state behind.
	DisarmFailpoint(FPFrameworkVisit)
	got, _, err := ix.Collect(q, ws, QueryOpts{})
	if err != nil {
		t.Fatalf("query after disarm: %v", err)
	}
	equalIDs(t, got, ds.Filter(q, ws), "post-recovery")
}

func TestPanicIsolationDimred(t *testing.T) {
	defer DisarmAllFailpoints()
	ds := workload.Gen(workload.Config{Seed: 12, Objects: 300, Dim: 3, Vocab: 20, DocLen: 4})
	ix, err := BuildORPKWHigh(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	ArmFailpoint(FPDimredVisit, func() { panic("dimred boom") })
	_, _, err = ix.Collect(geom.UniverseRect(3), []dataset.Keyword{1, 2}, QueryOpts{})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("dimred panic surfaced as %v, want *PanicError", err)
	}
}

func TestDeadlineStopsStalledTraversal(t *testing.T) {
	defer DisarmAllFailpoints()
	ds := workload.Gen(workload.Config{Seed: 13, Objects: 2000, Dim: 2, Vocab: 10, DocLen: 4})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.UniverseRect(2)
	ws := []dataset.Keyword{1, 2}
	full, _, err := ix.Collect(q, ws, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}

	// Each visit stalls 100µs; with a 1ms deadline the poll (every 64 stop
	// checks) must fire long before the traversal would finish on its own.
	ArmFailpoint(FPFrameworkVisit, func() { time.Sleep(100 * time.Microsecond) })
	start := time.Now()
	partial, st, err := ix.Collect(q, ws, QueryOpts{Policy: ExecPolicy{Timeout: time.Millisecond}})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("stalled traversal returned %v, want ErrDeadline", err)
	}
	if !st.DeadlineHit || !st.Truncated {
		t.Fatalf("stats flags after deadline: %+v", st)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline stop took %v, want prompt return", elapsed)
	}
	assertPrefix(t, partial, full, "deadline")
}

func TestNodeBudgetPartialPrefix(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 14, Objects: 1500, Dim: 2, Vocab: 8, DocLen: 4})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.UniverseRect(2)
	ws := []dataset.Keyword{1, 2}
	full, fullSt, err := ix.Collect(q, ws, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if fullSt.NodesVisited < 20 {
		t.Skipf("traversal too small to budget (visited %d)", fullSt.NodesVisited)
	}
	for _, budget := range []int64{1, 5, int64(fullSt.NodesVisited) / 2} {
		partial, st, err := ix.Collect(q, ws, QueryOpts{Policy: ExecPolicy{NodeBudget: budget}})
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("budget %d: err = %v, want ErrBudget", budget, err)
		}
		if !st.NodeBudgetHit || !st.Truncated {
			t.Fatalf("budget %d: stats flags %+v", budget, st)
		}
		assertPrefix(t, partial, full, "budget")
	}
	// A budget generous enough for the whole traversal changes nothing.
	all, st, err := ix.Collect(q, ws, QueryOpts{Policy: ExecPolicy{NodeBudget: int64(fullSt.NodesVisited) + 10}})
	if err != nil {
		t.Fatalf("ample budget errored: %v", err)
	}
	if st.NodeBudgetHit {
		t.Fatal("ample budget flagged NodeBudgetHit")
	}
	equalIDs(t, all, full, "ample budget")
}

func TestCancellation(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 15, Objects: 500, Dim: 2, Vocab: 10, DocLen: 4})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	close(done)
	_, st, err := ix.Collect(geom.UniverseRect(2), []dataset.Keyword{1, 2},
		QueryOpts{Policy: ExecPolicy{Done: done}})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("closed Done returned %v, want ErrCanceled", err)
	}
	if !st.Canceled || !st.Truncated {
		t.Fatalf("stats flags after cancel: %+v", st)
	}
}

func TestMaxResultsTruncatesWithoutError(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 16, Objects: 800, Dim: 2, Vocab: 6, DocLen: 4})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.UniverseRect(2)
	ws := []dataset.Keyword{1, 2}
	full, _, err := ix.Collect(q, ws, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 5 {
		t.Skipf("only %d results", len(full))
	}
	got, st, err := ix.Collect(q, ws, QueryOpts{Policy: ExecPolicy{MaxResults: 3}})
	if err != nil {
		t.Fatalf("MaxResults errored: %v", err)
	}
	if len(got) != 3 || !st.Truncated {
		t.Fatalf("MaxResults=3 returned %d results, Truncated=%v", len(got), st.Truncated)
	}
	assertPrefix(t, got, full, "maxresults")
}

func TestBatchPanicIsolatedPositionally(t *testing.T) {
	defer DisarmAllFailpoints()
	ds := workload.Gen(workload.Config{Seed: 17, Objects: 600, Dim: 2, Vocab: 12, DocLen: 4})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]RectQuery, 5)
	for i := range queries {
		queries[i] = RectQuery{Rect: geom.UniverseRect(2), Keywords: []dataset.Keyword{1, 2}}
	}
	// With parallelism 1 the batch runs in order; panic exactly on query 2.
	var n atomic.Int64
	ArmFailpoint(FPBatchQuery, func() {
		if n.Add(1) == 3 {
			panic("query 2 dies")
		}
	})
	results := ix.QueryBatch(queries, 1)
	for i, r := range results {
		var pe *PanicError
		if i == 2 {
			if !errors.As(r.Err, &pe) {
				t.Fatalf("query 2: err = %v, want *PanicError", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("query %d: unexpected error %v", i, r.Err)
		}
		equalIDs(t, r.IDs, ds.Filter(queries[i].Rect, queries[i].Keywords), "batch neighbor")
	}
}

func TestDynamicPolicyAndPanic(t *testing.T) {
	defer DisarmAllFailpoints()
	d, err := NewDynamicORPKW(2, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	src := workload.Gen(workload.Config{Seed: 18, Objects: 500, Dim: 2, Vocab: 8, DocLen: 4})
	for i := 0; i < src.Len(); i++ {
		obj := dataset.Object{Point: src.Point(int32(i)), Doc: src.Doc(int32(i))}
		if _, err := d.Insert(obj); err != nil {
			t.Fatal(err)
		}
	}
	if d.NumBuckets() == 0 {
		t.Fatal("expected Bentley–Saxe buckets after 500 inserts")
	}
	q := geom.UniverseRect(2)
	ws := []dataset.Keyword{1, 2}
	var full []int64
	if _, err := d.Query(q, ws, func(h int64, _ *dataset.Object) { full = append(full, h) }); err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Skip("no matches for the probe keywords")
	}

	var partial []int64
	_, err = d.QueryWith(q, ws, QueryOpts{Policy: ExecPolicy{NodeBudget: 10}},
		func(h int64, _ *dataset.Object) { partial = append(partial, h) })
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("dynamic budget: err = %v, want ErrBudget", err)
	}
	if len(partial) > len(full) {
		t.Fatalf("partial (%d) longer than full (%d)", len(partial), len(full))
	}
	for i := range partial {
		if partial[i] != full[i] {
			t.Fatalf("dynamic partial[%d] = %d, full[%d] = %d", i, partial[i], i, full[i])
		}
	}

	ArmFailpoint(FPDynamicBucket, func() { panic("bucket corrupt") })
	_, err = d.Query(q, ws, func(int64, *dataset.Object) {})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("dynamic panic surfaced as %v, want *PanicError", err)
	}
	DisarmAllFailpoints()

	// The dynamic wrapper still answers correctly after both failures.
	var again []int64
	if _, err := d.Query(q, ws, func(h int64, _ *dataset.Object) { again = append(again, h) }); err != nil {
		t.Fatal(err)
	}
	if len(again) != len(full) {
		t.Fatalf("post-failure query returned %d results, want %d", len(again), len(full))
	}
}

func TestNNPolicyAndPanic(t *testing.T) {
	defer DisarmAllFailpoints()
	ds := workload.Gen(workload.Config{Seed: 19, Objects: 800, Dim: 2, Vocab: 8, DocLen: 4})
	ix, err := BuildLinfNN(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Point{0.5, 0.5}
	ws := []dataset.Keyword{1, 2}
	res, _, err := ix.Query(q, 5, ws, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Skip("no neighbors for the probe keywords")
	}

	_, _, err = ix.Query(q, 5, ws, QueryOpts{Policy: ExecPolicy{NodeBudget: 1}})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("NN budget: err = %v, want ErrBudget", err)
	}

	ArmFailpoint(FPNNProbe, func() { panic("probe dies") })
	_, _, err = ix.Query(q, 5, ws, QueryOpts{})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("NN panic surfaced as %v, want *PanicError", err)
	}
	DisarmAllFailpoints()

	again, _, err := ix.Query(q, 5, ws, QueryOpts{})
	if err != nil || len(again) != len(res) {
		t.Fatalf("post-failure NN query: %d results, err %v", len(again), err)
	}
}

func TestMultiKArityOnePolicy(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 20, Objects: 600, Dim: 2, Vocab: 6, DocLen: 4})
	m, err := BuildMultiK(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.UniverseRect(2)
	full, _, err := m.Collect(q, []dataset.Keyword{1}, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 10 {
		t.Skipf("only %d arity-1 matches", len(full))
	}
	partial, st, err := m.Collect(q, []dataset.Keyword{1}, QueryOpts{Policy: ExecPolicy{NodeBudget: 5}})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("arity-1 budget: err = %v, want ErrBudget", err)
	}
	if !st.NodeBudgetHit {
		t.Fatalf("stats flags: %+v", st)
	}
	assertPrefix(t, partial, full, "multik arity-1")
}

func TestValidationRejectsMalformedQueries(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 21, Objects: 200, Dim: 2, Vocab: 10, DocLen: 4})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	cases := []struct {
		name string
		q    *geom.Rect
		ws   []dataset.Keyword
	}{
		{"nil rect", nil, []dataset.Keyword{1, 2}},
		{"NaN bound", &geom.Rect{Lo: []float64{nan, 0}, Hi: []float64{1, 1}}, []dataset.Keyword{1, 2}},
		{"inverted", &geom.Rect{Lo: []float64{1, 0}, Hi: []float64{0, 1}}, []dataset.Keyword{1, 2}},
		{"wrong dim", geom.UniverseRect(3), []dataset.Keyword{1, 2}},
		{"wrong arity", geom.UniverseRect(2), []dataset.Keyword{1, 2, 3}},
		{"duplicate keywords", geom.UniverseRect(2), []dataset.Keyword{1, 1}},
	}
	for _, c := range cases {
		if _, _, err := ix.Collect(c.q, c.ws, QueryOpts{}); !errors.Is(err, ErrInvalidQuery) {
			t.Errorf("%s: err = %v, want ErrInvalidQuery", c.name, err)
		}
	}

	// Infinite bounds remain a legal half-open range.
	inf := math.Inf(1)
	if _, _, err := ix.Collect(geom.NewRect([]float64{0, 0}, []float64{inf, inf}),
		[]dataset.Keyword{1, 2}, QueryOpts{}); err != nil {
		t.Errorf("infinite bounds rejected: %v", err)
	}

	// Sphere and point validation on the other families.
	srp, err := BuildSRPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srp.Collect(&geom.Sphere{Center: geom.Point{0, 0}, Radius: nan},
		[]dataset.Keyword{1, 2}, QueryOpts{}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("NaN radius: err = %v, want ErrInvalidQuery", err)
	}
	if _, _, err := srp.Collect(&geom.Sphere{Center: geom.Point{0, 0}, Radius: -1},
		[]dataset.Keyword{1, 2}, QueryOpts{}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("negative radius: err = %v, want ErrInvalidQuery", err)
	}
	nn, err := BuildLinfNN(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := nn.Query(geom.Point{inf, 0}, 3, []dataset.Keyword{1, 2}, QueryOpts{}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("Inf NN point: err = %v, want ErrInvalidQuery", err)
	}
	if _, _, err := nn.Query(geom.Point{0, 0}, 0, []dataset.Keyword{1, 2}, QueryOpts{}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("t=0 NN: err = %v, want ErrInvalidQuery", err)
	}
	sp, err := BuildSPKW(ds, SPKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := []geom.Halfspace{{Coef: []float64{nan, 1}, Bound: 0}}
	if _, err := sp.QueryConstraints(bad, []dataset.Keyword{1, 2}, QueryOpts{}, func(int32) {}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("NaN halfspace: err = %v, want ErrInvalidQuery", err)
	}
}

// TestPolicyAcrossFamilies drives the same budget/deadline machinery through
// the families that layer on the framework, confirming each surfaces the
// typed error rather than silently completing.
func TestPolicyAcrossFamilies(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 22, Objects: 1000, Dim: 2, Vocab: 6, DocLen: 4})
	ws := []dataset.Keyword{1, 2}

	sp, err := BuildSPKW(ds, SPKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := []geom.Halfspace{{Coef: []float64{1, 0}, Bound: 2}}
	if _, _, err := sp.CollectConstraints(hs, ws, QueryOpts{Policy: ExecPolicy{NodeBudget: 2}}); !errors.Is(err, ErrBudget) {
		t.Errorf("SPKW budget: err = %v, want ErrBudget", err)
	}

	srp, err := BuildSRPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srp.Collect(geom.NewSphere(geom.Point{0.5, 0.5}, 10), ws,
		QueryOpts{Policy: ExecPolicy{NodeBudget: 2}}); !errors.Is(err, ErrBudget) {
		t.Errorf("SRPKW budget: err = %v, want ErrBudget", err)
	}

	hi := workload.Gen(workload.Config{Seed: 23, Objects: 600, Dim: 3, Vocab: 6, DocLen: 4})
	drx, err := BuildORPKWHigh(hi, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := drx.Collect(geom.UniverseRect(3), ws,
		QueryOpts{Policy: ExecPolicy{NodeBudget: 2}}); !errors.Is(err, ErrBudget) {
		t.Errorf("ORPKWHigh budget: err = %v, want ErrBudget", err)
	}
}

// TestLegacyBudgetStaysErrorFree pins the pre-existing QueryOpts.Budget
// contract: a silent stop with BudgetHit set, no error — distinct from the
// policy's ErrBudget.
func TestLegacyBudgetStaysErrorFree(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 24, Objects: 800, Dim: 2, Vocab: 6, DocLen: 4})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := ix.Collect(geom.UniverseRect(2), []dataset.Keyword{1, 2}, QueryOpts{Budget: 3})
	if err != nil {
		t.Fatalf("legacy Budget returned error %v", err)
	}
	if !st.BudgetHit {
		t.Fatal("legacy Budget did not flag BudgetHit")
	}
}
