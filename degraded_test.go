package kwsc_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"kwsc"
	"kwsc/internal/core"
	"kwsc/internal/workload"
)

func degradedFixture(t *testing.T) (*kwsc.Dataset, *kwsc.Degraded, *kwsc.Rect, []kwsc.Keyword) {
	t.Helper()
	objs := make([]kwsc.Object, 0, 1200)
	for i := 0; i < 1200; i++ {
		x := float64(i%40) / 40
		y := float64(i/40) / 40
		doc := []kwsc.Keyword{kwsc.Keyword(1 + i%3), kwsc.Keyword(4 + i%5)}
		if i%2 == 0 {
			doc = append(doc, 1, 4)
		}
		objs = append(objs, kwsc.Object{Point: kwsc.Point{x, y}, Doc: doc})
	}
	ds, err := kwsc.NewDataset(objs)
	if err != nil {
		t.Fatal(err)
	}
	d, err := kwsc.NewDegraded(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ds, d, kwsc.Universe(2), []kwsc.Keyword{1, 4}
}

func sameIDSet(t *testing.T, got, want []int32, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	seen := make(map[int32]struct{}, len(got))
	for _, id := range got {
		seen[id] = struct{}{}
	}
	for _, id := range want {
		if _, ok := seen[id]; !ok {
			t.Fatalf("%s: missing id %d", label, id)
		}
	}
}

func TestDegradedFallsBackOnBudget(t *testing.T) {
	ds, d, q, ws := degradedFixture(t)
	want := ds.Filter(q, ws)
	if len(want) == 0 {
		t.Fatal("fixture produced no matches")
	}
	got, st, err := d.CollectInto(q, ws, kwsc.QueryOpts{Policy: kwsc.ExecPolicy{NodeBudget: 2}}, nil)
	if err != nil {
		t.Fatalf("degraded collect errored: %v", err)
	}
	if !st.Fallback {
		t.Fatal("QueryStats.Fallback not set after budget exhaustion")
	}
	sameIDSet(t, got, want, "budget fallback")
	if d.FallbackCount() != 1 {
		t.Fatalf("FallbackCount = %d, want 1", d.FallbackCount())
	}

	// An unconstrained query uses the index path and matches too.
	got2, st2, err := d.CollectInto(q, ws, kwsc.QueryOpts{}, nil)
	if err != nil || st2.Fallback {
		t.Fatalf("unconstrained query: err=%v fallback=%v", err, st2.Fallback)
	}
	sameIDSet(t, got2, want, "index path")
}

func TestDegradedFallsBackOnPanic(t *testing.T) {
	defer core.DisarmAllFailpoints()
	ds, d, q, ws := degradedFixture(t)
	want := ds.Filter(q, ws)

	core.ArmFailpoint(core.FPFrameworkVisit, func() { panic("index corrupted") })
	got, st, err := d.CollectInto(q, ws, kwsc.QueryOpts{}, nil)
	if err != nil {
		t.Fatalf("degraded collect errored despite fallback: %v", err)
	}
	if !st.Fallback {
		t.Fatal("QueryStats.Fallback not set after index panic")
	}
	sameIDSet(t, got, want, "panic fallback")
}

func TestDegradedDoesNotFallBackOnDeadline(t *testing.T) {
	defer core.DisarmAllFailpoints()
	_, d, q, ws := degradedFixture(t)
	core.ArmFailpoint(core.FPFrameworkVisit, func() { time.Sleep(100 * time.Microsecond) })
	_, st, err := d.CollectInto(q, ws, kwsc.QueryOpts{Policy: kwsc.ExecPolicy{Deadline: time.Now().Add(time.Millisecond)}}, nil)
	if !errors.Is(err, kwsc.ErrDeadline) {
		t.Fatalf("deadline stop returned %v, want ErrDeadline", err)
	}
	if st.Fallback {
		t.Fatal("deadline stop must not trigger fallback")
	}
}

func TestDegradedDoesNotFallBackOnInvalidQuery(t *testing.T) {
	_, d, _, ws := degradedFixture(t)
	bad := &kwsc.Rect{Lo: []float64{math.NaN(), 0}, Hi: []float64{1, 1}}
	_, st, err := d.CollectInto(bad, ws, kwsc.QueryOpts{}, nil)
	if !errors.Is(err, kwsc.ErrInvalidQuery) {
		t.Fatalf("NaN rect returned %v, want ErrInvalidQuery", err)
	}
	if st.Fallback || d.FallbackCount() != 0 {
		t.Fatal("invalid query must not trigger fallback")
	}
}

func TestDegradedFallbackRespectsLimit(t *testing.T) {
	ds, d, q, ws := degradedFixture(t)
	want := ds.Filter(q, ws)
	if len(want) < 5 {
		t.Fatal("fixture too small")
	}
	got, st, err := d.CollectInto(q, ws, kwsc.QueryOpts{
		Limit:  3,
		Policy: kwsc.ExecPolicy{NodeBudget: 2},
	}, nil)
	if err != nil {
		t.Fatalf("degraded collect errored: %v", err)
	}
	if !st.Fallback || !st.Truncated || len(got) != 3 {
		t.Fatalf("fallback with Limit=3: %d results, fallback=%v truncated=%v",
			len(got), st.Fallback, st.Truncated)
	}
}

// TestDegradedForcedFallbackDifferential starves the index path of every
// query (NodeBudget 1 stops at the root) on generated corpora under both
// primary indexes — Theorem 1 at d = 2, Theorem 2 at d = 3 — so the
// inverted-index fallback alone produces each answer, held to the brute-force
// filter.
func TestDegradedForcedFallbackDifferential(t *testing.T) {
	for _, dim := range []int{2, 3} {
		ds := workload.Gen(workload.Config{Seed: int64(40 + dim), Objects: 1500, Dim: dim, Vocab: 24, DocLen: 5})
		d, err := kwsc.NewDegraded(ds, 2)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(dim)))
		fallbacks, nonEmpty := 0, 0
		for trial := 0; trial < 80; trial++ {
			q, ws := workload.RandRect(rng, dim, 0.2+0.7*rng.Float64()), workload.RandKeywords(rng, 24, 2)
			want := ds.Filter(q, ws)
			got, st, err := d.CollectInto(q, ws, kwsc.QueryOpts{Policy: kwsc.ExecPolicy{NodeBudget: 1}}, nil)
			if err != nil {
				t.Fatalf("d=%d trial %d: %v", dim, trial, err)
			}
			sameIDSet(t, got, want, "forced fallback")
			if len(want) > 0 {
				nonEmpty++
				if !st.Fallback {
					t.Fatalf("d=%d trial %d: %d results within a node budget of 1, Fallback unset", dim, trial, len(want))
				}
			}
			if st.Fallback {
				fallbacks++
			}
		}
		if int64(fallbacks) != d.FallbackCount() || nonEmpty < 40 {
			t.Fatalf("d=%d: %d fallbacks seen, %d counted, %d non-empty answers of 80", dim, fallbacks, d.FallbackCount(), nonEmpty)
		}
	}
}
