package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
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
	_, _, err = ix.CollectInto(q, ws, QueryOpts{}, nil)
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
	got, _, err := ix.CollectInto(q, ws, QueryOpts{}, nil)
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
	_, _, err = ix.CollectInto(geom.UniverseRect(3), []dataset.Keyword{1, 2}, QueryOpts{}, nil)
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
	full, _, err := ix.CollectInto(q, ws, QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Each visit stalls 100µs; with a 1ms deadline the poll (every 64 stop
	// checks) must fire long before the traversal would finish on its own.
	ArmFailpoint(FPFrameworkVisit, func() { time.Sleep(100 * time.Microsecond) })
	start := time.Now()
	partial, st, err := ix.CollectInto(q, ws, QueryOpts{Policy: ExecPolicy{Deadline: start.Add(time.Millisecond)}}, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("stalled traversal returned %v, want ErrDeadline", err)
	}
	if !st.Truncated {
		t.Fatalf("deadline stop without Truncated: %+v", st)
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
	full, fullSt, err := ix.CollectInto(q, ws, QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fullSt.Ops < 20 {
		t.Skipf("traversal too small to budget (%d work units)", fullSt.Ops)
	}
	for _, budget := range []int64{1, 5, fullSt.Ops / 2} {
		partial, st, err := ix.CollectInto(q, ws, QueryOpts{Policy: ExecPolicy{NodeBudget: budget}}, nil)
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("budget %d: err = %v, want ErrBudget", budget, err)
		}
		if !st.Truncated {
			t.Fatalf("budget %d: stop without Truncated: %+v", budget, st)
		}
		assertPrefix(t, partial, full, "budget")
	}
	// A budget generous enough for the whole traversal changes nothing.
	all, st, err := ix.CollectInto(q, ws, QueryOpts{Policy: ExecPolicy{NodeBudget: fullSt.Ops}}, nil)
	if err != nil {
		t.Fatalf("ample budget errored: %v", err)
	}
	if st.Truncated {
		t.Fatal("ample budget flagged Truncated")
	}
	equalIDs(t, all, full, "ample budget")
}

// TestNodeBudgetBoundsStopNodeWork: queried with the universe rectangle, a
// planted dataset's root is a covered stop node, whose intersection visits
// no node. The budget counts work units, so it ends that scan as it ends a
// descent: each budget stops the query with ErrBudget and a prefix of the
// answer, within one candidate and one bitmap block of the budget.
func TestNodeBudgetBoundsStopNodeWork(t *testing.T) {
	ds, ws, _ := workload.GenPlanted(workload.Planted{Seed: 1, Objects: 65536, Dim: 2, Vocab: 1000, DocLen: 4, K: 2, Out: 100, Partial: 400})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.UniverseRect(2)
	full, fullSt, err := ix.CollectInto(q, ws, QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 100 || fullSt.NodesVisited != 1 {
		t.Fatalf("the probe is %d results over %d node visits, want 100 over the root alone", len(full), fullSt.NodesVisited)
	}
	for _, budget := range []int64{1, 2, 8, 32} {
		partial, st, err := ix.CollectInto(q, ws, QueryOpts{Policy: ExecPolicy{NodeBudget: budget}}, nil)
		if !errors.Is(err, ErrBudget) || !st.Truncated {
			t.Fatalf("budget %d: %d results, %d work units, err %v: want ErrBudget", budget, len(partial), st.Ops, err)
		}
		if st.Ops > budget+1+bmBlock {
			t.Fatalf("budget %d: %d work units spent", budget, st.Ops)
		}
		assertPrefix(t, partial, full, "stop-node budget")
	}
	if _, st, err := ix.CollectInto(q, ws, QueryOpts{Policy: ExecPolicy{NodeBudget: fullSt.Ops}}, nil); err != nil || st.Truncated {
		t.Fatalf("a budget of the whole query's %d work units: err %v, truncated %v", fullSt.Ops, err, st.Truncated)
	}
}

func TestCancellation(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 15, Objects: 500, Dim: 2, Vocab: 10, DocLen: 4})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	close(done)
	_, st, err := ix.CollectInto(geom.UniverseRect(2), []dataset.Keyword{1, 2}, QueryOpts{Policy: ExecPolicy{Done: done}}, nil)

	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("closed Done returned %v, want ErrCanceled", err)
	}
	if !st.Truncated {
		t.Fatalf("cancel without Truncated: %+v", st)
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
	if _, err := d.Query(q, ws, QueryOpts{}, func(h int64, _ *dataset.Object) { full = append(full, h) }); err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Skip("no matches for the probe keywords")
	}

	var partial []int64
	_, err = d.Query(q, ws, QueryOpts{Policy: ExecPolicy{NodeBudget: 10}},
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
	_, err = d.Query(q, ws, QueryOpts{}, func(int64, *dataset.Object) {})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("dynamic panic surfaced as %v, want *PanicError", err)
	}
	DisarmAllFailpoints()

	// The dynamic wrapper still answers correctly after both failures.
	var again []int64
	if _, err := d.Query(q, ws, QueryOpts{}, func(h int64, _ *dataset.Object) { again = append(again, h) }); err != nil {
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
		if _, _, err := ix.CollectInto(c.q, c.ws, QueryOpts{}, nil); !errors.Is(err, ErrInvalidQuery) {
			t.Errorf("%s: err = %v, want ErrInvalidQuery", c.name, err)
		}
	}

	// Infinite bounds remain a legal half-open range.
	inf := math.Inf(1)
	if _, _, err := ix.CollectInto(geom.NewRect([]float64{0, 0}, []float64{inf, inf}), []dataset.Keyword{1, 2}, QueryOpts{}, nil); err != nil {
		t.Errorf("infinite bounds rejected: %v", err)
	}

	// Sphere and point validation on the other families.
	srp, err := BuildSRPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srp.CollectInto(&geom.Sphere{Center: geom.Point{0, 0}, Radius: nan}, []dataset.Keyword{1, 2}, QueryOpts{}, nil); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("NaN radius: err = %v, want ErrInvalidQuery", err)
	}
	if _, _, err := srp.CollectInto(&geom.Sphere{Center: geom.Point{0, 0}, Radius: -1}, []dataset.Keyword{1, 2}, QueryOpts{}, nil); !errors.Is(err, ErrInvalidQuery) {
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
	if _, err := sp.Query(bad, []dataset.Keyword{1, 2}, QueryOpts{}, func(int32) {}); !errors.Is(err, ErrInvalidQuery) {
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
	if _, _, err := sp.CollectInto(hs, ws, QueryOpts{Policy: ExecPolicy{NodeBudget: 2}}, nil); !errors.Is(err, ErrBudget) {
		t.Errorf("SPKW budget: err = %v, want ErrBudget", err)
	}

	srp, err := BuildSRPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srp.CollectInto(geom.NewSphere(geom.Point{0.5, 0.5}, 10), ws, QueryOpts{Policy: ExecPolicy{NodeBudget: 2}}, nil); !errors.Is(err, ErrBudget) {
		t.Errorf("SRPKW budget: err = %v, want ErrBudget", err)
	}

	hi := workload.Gen(workload.Config{Seed: 23, Objects: 600, Dim: 3, Vocab: 6, DocLen: 4})
	drx, err := BuildORPKWHigh(hi, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := drx.CollectInto(geom.UniverseRect(3), ws, QueryOpts{Policy: ExecPolicy{NodeBudget: 2}}, nil); !errors.Is(err, ErrBudget) {
		t.Errorf("ORPKWHigh budget: err = %v, want ErrBudget", err)
	}
}

// A NaN coordinate has no place in any order: rank space and the splitters
// would sort it inconsistently, and a rectangle's search would miss finite
// matches. Every way into an index refuses it, naming the object. Infinite
// coordinates order like any other, stay accepted, and answer exactly as the
// brute-force filter, static and dynamic.
func TestNaNCoordinateRefused(t *testing.T) {
	objects := func(seed int64, bad float64) []dataset.Object {
		rng := rand.New(rand.NewSource(seed))
		objs := make([]dataset.Object, 3000)
		for i := range objs {
			p := geom.Point{rng.Float64(), rng.Float64()}
			if i%10 == 3 {
				p[rng.Intn(2)] = bad * float64(1-2*rng.Intn(2))
			}
			doc := make([]dataset.Keyword, 1+rng.Intn(4))
			for j := range doc {
				doc[j] = dataset.Keyword(rng.Intn(12))
			}
			objs[i] = dataset.Object{Point: p, Doc: dataset.NormalizeDoc(doc)}
		}
		return objs
	}
	fromColumns := func(objs []dataset.Object) error {
		var points []float64
		var words []dataset.Keyword
		starts := []int64{0}
		for _, o := range objs {
			points = append(points, o.Point...)
			words = append(words, o.Doc...)
			starts = append(starts, int64(len(words)))
		}
		_, err := dataset.FromColumns(2, points, starts, words)
		return err
	}
	insert := func(objs []dataset.Object) (*DynamicORPKW, []int64, error) {
		d, err := NewDynamicORPKW(2, 2, 64)
		if err != nil {
			t.Fatal(err)
		}
		handles := make([]int64, len(objs))
		for i, o := range objs {
			if handles[i], err = d.Insert(o); err != nil {
				return nil, nil, err
			}
		}
		return d, handles, nil
	}
	for _, path := range []struct {
		name, names string
		load        func([]dataset.Object) error
	}{
		{"dataset.New", "object 3 ", func(objs []dataset.Object) error { _, err := dataset.New(objs); return err }},
		{"dataset.FromColumns", "object 3 ", fromColumns},
		{"DynamicORPKW.Insert", "object at [", func(objs []dataset.Object) error { _, _, err := insert(objs); return err }},
	} {
		err := path.load(objects(1, math.NaN()))
		if err == nil || !strings.Contains(err.Error(), "NaN coordinate") || !strings.Contains(err.Error(), path.names) {
			t.Fatalf("%s: a NaN coordinate gave %v, want a refusal naming the object", path.name, err)
		}
	}

	objs := objects(2, math.Inf(1))
	if err := fromColumns(objs); err != nil {
		t.Fatalf("FromColumns refused infinite coordinates: %v", err)
	}
	ds, err := dataset.New(objs)
	if err != nil {
		t.Fatal(err)
	}
	static, err := BuildORPKW(ds, 2, WithoutObs())
	if err != nil {
		t.Fatal(err)
	}
	dyn, handles, err := insert(objs)
	if err != nil {
		t.Fatal(err)
	}
	idOf := make(map[int64]int32, len(handles))
	for i, h := range handles {
		idOf[h] = int32(i)
	}
	rng := rand.New(rand.NewSource(3))
	for q := 0; q < 200; q++ {
		rect := workload.RandRect(rng, 2, 0.1+0.8*rng.Float64())
		if q%4 == 0 {
			rect.Lo[rng.Intn(2)] = math.Inf(-1)
			rect.Hi[rng.Intn(2)] = math.Inf(1)
		}
		ws := workload.RandKeywords(rng, 12, 2)
		want := sortedIDs(ds.Filter(rect, ws))
		got, _, err := static.CollectInto(rect, ws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		equalIDs(t, sortedIDs(got), want, "static ORP-KW with infinite coordinates vs filter")
		var dgot []int32
		if _, err := dyn.Query(rect, ws, QueryOpts{}, func(h int64, _ *dataset.Object) { dgot = append(dgot, idOf[h]) }); err != nil {
			t.Fatal(err)
		}
		equalIDs(t, sortedIDs(dgot), want, "dynamic ORP-KW with infinite coordinates vs filter")
	}
}

// TestEachStopCauseHasItsError: with the stop flags gone the typed error is
// the only record of why a query stopped, so every traversal that polls the
// policy is held to it — a closed Done, a past Deadline and a one-node budget
// each stop with their own error, Truncated set, and a proper prefix of the
// unbounded answer.
func TestEachStopCauseHasItsError(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 25, Objects: 2000, Dim: 2, Vocab: 8, DocLen: 4})
	hi := workload.Gen(workload.Config{Seed: 26, Objects: 2000, Dim: 3, Vocab: 8, DocLen: 4})
	ws := []dataset.Keyword{1, 2}
	u2, u3 := geom.UniverseRect(2), geom.UniverseRect(3)
	ids := func(in []int32) []int64 {
		out := make([]int64, len(in))
		for i, id := range in {
			out[i] = int64(id)
		}
		return out
	}
	type run func(QueryOpts) ([]int64, QueryStats, error)
	collect := func(f func(QueryOpts) ([]int32, QueryStats, error)) run {
		return func(o QueryOpts) ([]int64, QueryStats, error) {
			got, st, err := f(o)
			return ids(got), st, err
		}
	}
	dynamic := func(d *DynamicORPKW) run {
		return func(o QueryOpts) ([]int64, QueryStats, error) {
			var got []int64
			st, err := d.Query(u2, ws, o, func(h int64, _ *dataset.Object) { got = append(got, h) })
			return got, st, err
		}
	}
	// filled inserts the first n objects of ds; a write buffer of bufferCap
	// leaves them all in the buffer when n < bufferCap, none when n is a
	// multiple of it.
	filled := func(n, bufferCap int) *DynamicORPKW {
		d, err := NewDynamicORPKW(2, 2, bufferCap)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := d.Insert(*ds.Object(int32(i))); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}

	low, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	high, err := BuildORPKWHigh(hi, 2)
	if err != nil {
		t.Fatal(err)
	}
	nn, err := BuildLinfNN(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	buffered, bucketed := filled(600, 1024), filled(640, 16)
	if buffered.NumBuckets() != 0 || bucketed.NumBuckets() == 0 {
		t.Fatalf("fixtures: %d buffered-index buckets, %d bucketed-index buckets", buffered.NumBuckets(), bucketed.NumBuckets())
	}
	snap := testCheckpointSnapshot(27, 1500, 2)
	base := openBothBaseModes(t, snap)["mmap"]
	defer base.Close()
	paged, err := RestoreDynamicORPKWFromBase(2, 2, 4, base, snap.NextHandle)
	if err != nil {
		t.Fatal(err)
	}
	pq := geom.Point{0.5, 0.5}

	traversals := []struct {
		name string
		run  run
	}{
		{"ORPKW", collect(func(o QueryOpts) ([]int32, QueryStats, error) { return low.CollectInto(u2, ws, o, nil) })},
		{"ORPKWHigh", collect(func(o QueryOpts) ([]int32, QueryStats, error) { return high.CollectInto(u3, ws, o, nil) })},
		{"Dynamic/buffer", dynamic(buffered)},
		{"Dynamic/bucket", dynamic(bucketed)},
		{"Dynamic/paged-base", dynamic(paged)},
		{"LinfNN", func(o QueryOpts) ([]int64, QueryStats, error) {
			res, ns, err := nn.Query(pq, 20, ws, o)
			got := make([]int64, len(res))
			for i, r := range res {
				got[i] = int64(r.ID)
			}
			return got, ns.QueryStats, err
		}},
	}
	closed := make(chan struct{})
	close(closed)
	causes := []struct {
		name   string
		policy ExecPolicy
		want   error
	}{
		{"canceled", ExecPolicy{Done: closed}, ErrCanceled},
		{"deadline", ExecPolicy{Deadline: time.Now().Add(-time.Second)}, ErrDeadline},
		// A context past its deadline closes Done too; the deadline is the cause.
		{"deadline+done", ExecPolicy{Done: closed, Deadline: time.Now().Add(-time.Second)}, ErrDeadline},
		{"node-budget", ExecPolicy{NodeBudget: 1}, ErrBudget},
	}
	for _, tr := range traversals {
		full, _, err := tr.run(QueryOpts{})
		if err != nil || len(full) < 2 {
			t.Fatalf("%s: unbounded answer has %d results, err %v", tr.name, len(full), err)
		}
		for _, c := range causes {
			part, st, err := tr.run(QueryOpts{Policy: c.policy})
			if !errors.Is(err, c.want) {
				t.Errorf("%s %s: err = %v, want %v", tr.name, c.name, err, c.want)
			}
			if !st.Truncated {
				t.Errorf("%s %s: stop without Truncated: %+v", tr.name, c.name, st)
			}
			if len(part) >= len(full) || !slices.Equal(part, full[:len(part)]) {
				t.Errorf("%s %s: %d results are not a proper prefix of the %d-result answer", tr.name, c.name, len(part), len(full))
			}
		}
	}
}
