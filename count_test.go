package kwsc_test

import (
	"math/rand"
	"testing"

	"kwsc"
	"kwsc/internal/geom"
	"kwsc/internal/workload"
)

// Count and Empty are written once over Index; these tests run them on every
// family against the brute-force filter.

func TestCountAndEmptyORPKW(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 1, Objects: 400, Dim: 2, Vocab: 20, DocLen: 4})
	ix, err := kwsc.NewORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		q := workload.RandRect(rng, 2, 0.4)
		ws := workload.RandKeywords(rng, 20, 2)
		want := len(ds.Filter(q, ws))
		n, _, err := kwsc.Count(ix, q, ws)
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("Count = %d, want %d", n, want)
		}
		empty, st, err := kwsc.Empty(ix, q, ws)
		if err != nil {
			t.Fatal(err)
		}
		if empty != (want == 0) {
			t.Fatalf("Empty = %v, want %v", empty, want == 0)
		}
		if want > 0 && st.Reported != 1 {
			t.Fatalf("emptiness query reported %d; must stop at the first hit", st.Reported)
		}
	}
}

func TestCountAndEmptyHighDim(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 2, Objects: 600, Dim: 3, Vocab: 15, DocLen: 4})
	ix, err := kwsc.NewORPKWHigh(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 15; trial++ {
		q := workload.RandRect(rng, 3, 0.6)
		ws := workload.RandKeywords(rng, 15, 2)
		want := len(ds.Filter(q, ws))
		n, _, err := kwsc.Count(ix, q, ws)
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("Count = %d, want %d", n, want)
		}
		empty, _, err := kwsc.Empty(ix, q, ws)
		if err != nil {
			t.Fatal(err)
		}
		if empty != (want == 0) {
			t.Fatalf("Empty = %v, want %v", empty, want == 0)
		}
	}
}

func TestCountConstraintsAndSphere(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 3, Objects: 400, Dim: 2, Vocab: 15, DocLen: 4})
	lc, err := kwsc.NewLCKW(ds, kwsc.LCKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	srp, err := kwsc.NewSRPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 15; trial++ {
		ws := workload.RandKeywords(rng, 15, 2)
		hs := workload.RandHalfspaces(rng, 2, 2, 0.6)
		want := len(ds.Filter(geom.NewPolyhedron(hs...), ws))
		n, _, err := kwsc.Count(lc, hs, ws)
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("LC-KW Count = %d, want %d", n, want)
		}
		empty, _, err := kwsc.Empty(lc, hs, ws)
		if err != nil {
			t.Fatal(err)
		}
		if empty != (want == 0) {
			t.Fatal("LC-KW Empty disagrees with Count")
		}
		s := geom.NewSphere(geom.Point{rng.Float64(), rng.Float64()}, 0.2)
		wantS := len(ds.Filter(s, ws))
		nS, _, err := kwsc.Count(srp, s, ws)
		if err != nil {
			t.Fatal(err)
		}
		if nS != wantS {
			t.Fatalf("sphere Count = %d, want %d", nS, wantS)
		}
		emptyS, _, err := kwsc.Empty(srp, s, ws)
		if err != nil {
			t.Fatal(err)
		}
		if emptyS != (wantS == 0) {
			t.Fatal("sphere Empty disagrees")
		}
	}
}

func TestCountRRKW(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	rects := make([]kwsc.RectObject, 200)
	for i := range rects {
		a := rng.Float64()
		rects[i] = kwsc.RectObject{
			Rect: &geom.Rect{Lo: []float64{a}, Hi: []float64{a + 0.1}},
			Doc:  []kwsc.Keyword{kwsc.Keyword(rng.Intn(4)), 4 + kwsc.Keyword(rng.Intn(4))},
		}
	}
	ix, err := kwsc.NewRRKW(rects, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := &geom.Rect{Lo: []float64{0.4}, Hi: []float64{0.6}}
	ws := []kwsc.Keyword{1, 5}
	want := 0
	for i, r := range rects {
		if ix.Dataset().HasAll(int32(i), ws) && r.Rect.Hi[0] >= 0.4 && r.Rect.Lo[0] <= 0.6 {
			want++
		}
	}
	n, _, err := kwsc.Count(ix, q, ws)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("RRKW Count = %d, want %d", n, want)
	}
	empty, _, err := kwsc.Empty(ix, q, ws)
	if err != nil {
		t.Fatal(err)
	}
	if empty != (want == 0) {
		t.Fatal("RRKW Empty disagrees")
	}
}
