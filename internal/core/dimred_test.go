package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/workload"
)

func TestDimRedRejectsLowDim(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 1, Objects: 20, Dim: 2, Vocab: 10, DocLen: 3})
	if _, err := BuildORPKWHigh(ds, 2); err == nil {
		t.Fatal("d=2 must be rejected (use ORPKW)")
	}
	ds3 := workload.Gen(workload.Config{Seed: 1, Objects: 20, Dim: 3, Vocab: 10, DocLen: 3})
	if _, err := BuildORPKWHigh(ds3, 1); err == nil {
		t.Fatal("k=1 must be rejected")
	}
}

// Proposition 1: the tree has O(log log N) levels. For the N values a test
// can afford, that means single digits.
func TestDimRedLevelsLogLog(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 2, Objects: 20000, Dim: 3, Vocab: 500, DocLen: 5})
	ix, err := BuildORPKWHigh(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l := ix.Levels(); l > 8 {
		t.Fatalf("top tree has %d levels for N=%d; expected O(log log N)", l, ds.N())
	}
}

// The fanout schedule f_u = 2*2^(k^level) (equation 10).
func TestFanoutSchedule(t *testing.T) {
	cases := []struct {
		k, level int
		want     int64
	}{
		{2, 0, 4}, {2, 1, 8}, {2, 2, 32}, {2, 3, 512},
		{3, 0, 4}, {3, 1, 16},
	}
	for _, c := range cases {
		if got := fanoutAt(c.k, c.level, 1<<40); got != c.want {
			t.Errorf("fanoutAt(k=%d, level=%d) = %d, want %d", c.k, c.level, got, c.want)
		}
	}
	// Deep levels saturate at the cap instead of overflowing.
	if got := fanoutAt(2, 50, 999); got != 999 {
		t.Errorf("deep fanout = %d, want cap", got)
	}
}

// Figure 2's structural claim: each level of the top tree has at most two
// type-2 nodes per query.
func TestDimRedType2PerLevel(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 4, Objects: 5000, Dim: 3, Vocab: 200, DocLen: 5})
	ix, err := BuildORPKWHigh(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 40; trial++ {
		q := workload.RandRect(rng, 3, 0.2+rng.Float64()*0.6)
		profile, err := ix.Type2Profile(q, []dataset.Keyword{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		for lvl, c := range profile {
			if c > 2 {
				t.Fatalf("trial %d: level %d has %d type-2 nodes, want <= 2", trial, lvl, c)
			}
		}
	}
}

// Type2Profile rejects what CollectInto rejects, with ErrInvalidQuery.
func TestType2ProfileRejectsInvalidQueries(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 10, Objects: 300, Dim: 3, Vocab: 20, DocLen: 3})
	ix, err := BuildORPKWHigh(ds, 2, WithoutObs())
	if err != nil {
		t.Fatal(err)
	}
	u := geom.UniverseRect(3)
	for _, c := range []struct {
		name string
		q    *geom.Rect
		ws   []dataset.Keyword
	}{
		{"1-D rectangle", geom.UniverseRect(1), []dataset.Keyword{0, 1}},
		{"NaN bound", &geom.Rect{Lo: []float64{0, math.NaN(), 0}, Hi: []float64{1, 1, 1}}, []dataset.Keyword{0, 1}},
		{"inverted", &geom.Rect{Lo: []float64{0, 0.6, 0}, Hi: []float64{1, 0.4, 1}}, []dataset.Keyword{0, 1}},
		{"duplicate keyword", u, []dataset.Keyword{1, 1}},
		{"k=3", u, []dataset.Keyword{0, 1, 2}},
	} {
		if levels, err := ix.Type2Profile(c.q, c.ws); !errors.Is(err, ErrInvalidQuery) {
			t.Errorf("%s: Type2Profile = %v, %v; want ErrInvalidQuery", c.name, levels, err)
		}
	}
}

// The space blow-up per added dimension stays modest (the log log N factor
// of Lemma 11): compare the audit for d=3 against the d=2 framework.
func TestDimRedSpaceBlowup(t *testing.T) {
	n := 4000
	ds2 := workload.Gen(workload.Config{Seed: 5, Objects: n, Dim: 2, Vocab: 300, DocLen: 5})
	ds3 := workload.Gen(workload.Config{Seed: 5, Objects: n, Dim: 3, Vocab: 300, DocLen: 5})
	ix2, err := BuildORPKW(ds2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ix3, err := BuildORPKWHigh(ds3, 2)
	if err != nil {
		t.Fatal(err)
	}
	w2 := ix2.Space().TotalWords(64)
	w3 := ix3.Space().TotalWords(64)
	// log log N for N ~ 24k is ~4.6; allow factor 16 for constants.
	if ratio := float64(w3) / float64(w2); ratio > 16 {
		t.Fatalf("d=3 uses %.1fx the space of d=2; expected an O(log log N) factor", ratio)
	}
}

// Limit and the policy's node budget flow through secondary structures.
func TestDimRedLimitBudget(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 6, Objects: 3000, Dim: 3, Vocab: 6, DocLen: 4})
	ix, err := BuildORPKWHigh(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	u := geom.UniverseRect(3)
	full, _, err := ix.CollectInto(u, []dataset.Keyword{0, 1}, QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 10 {
		t.Skip("too few matches for limit test")
	}
	got, st, err := ix.CollectInto(u, []dataset.Keyword{0, 1}, QueryOpts{Limit: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || !st.Truncated {
		t.Fatalf("limit=5: got %d, truncated=%v", len(got), st.Truncated)
	}
	_, st, err = ix.CollectInto(u, []dataset.Keyword{0, 1}, QueryOpts{Policy: ExecPolicy{NodeBudget: 5}}, nil)
	if !errors.Is(err, ErrBudget) || !st.Truncated {
		t.Fatalf("tiny node budget must trip: err=%v truncated=%v", err, st.Truncated)
	}
}

// Type-1 plus type-2 node counts are recorded.
func TestDimRedStatsPopulated(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 7, Objects: 3000, Dim: 3, Vocab: 40, DocLen: 5})
	ix, err := BuildORPKWHigh(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := workload.RandRect(rand.New(rand.NewSource(1)), 3, 0.5)
	_, st, err := ix.CollectInto(q, []dataset.Keyword{0, 1}, QueryOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Type1Nodes+st.Type2Nodes == 0 {
		t.Fatalf("dimension-reduction stats empty: %+v", st)
	}
}

// 4-dimensional nesting: a drTree whose secondaries are themselves drTrees.
func TestDimRedNested4D(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 8, Objects: 1500, Dim: 4, Vocab: 40, DocLen: 4})
	ix, err := BuildORPKWHigh(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 25; trial++ {
		q := workload.RandRect(rng, 4, 0.6)
		ws := workload.RandKeywords(rng, 40, 2)
		got, _, err := ix.CollectInto(q, ws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		equalIDs(t, got, ds.Filter(q, ws), "dimred-4d")
	}
}

// k=3 through the dimension-reduction machinery.
func TestDimRedK3(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 9, Objects: 1200, Dim: 3, Vocab: 15, DocLen: 6, ZipfS: 1.1})
	ix, err := BuildORPKWHigh(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		q := workload.RandRect(rng, 3, 0.7)
		ws := workload.RandKeywords(rng, 15, 3)
		got, _, err := ix.CollectInto(q, ws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		equalIDs(t, got, ds.Filter(q, ws), "dimred-k3")
	}
}
