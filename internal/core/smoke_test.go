package core

import (
	"math/rand"
	"sort"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/workload"
)

func sortedIDs(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func equalIDs(t *testing.T, got, want []int32, label string) {
	t.Helper()
	g, w := sortedIDs(got), sortedIDs(want)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d results, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: result %d: got id %d, want %d", label, i, g[i], w[i])
		}
	}
}

func TestSmokeORPKW(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 1, Objects: 500, Dim: 2, Vocab: 60, DocLen: 5})
	ix, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 50; q++ {
		rect := workload.RandRect(rng, 2, 0.3)
		kws := workload.RandKeywords(rng, 60, 2)
		got, _, err := ix.CollectInto(rect, kws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		equalIDs(t, got, ds.Filter(rect, kws), "orpkw")
	}
}

func TestSmokeSPKW(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 2, Objects: 500, Dim: 2, Vocab: 60, DocLen: 5})
	ix, err := BuildSPKW(ds, SPKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for q := 0; q < 50; q++ {
		hs := workload.RandHalfspaces(rng, 2, 2, 0.6)
		kws := workload.RandKeywords(rng, 60, 2)
		got, _, err := ix.CollectInto(hs, kws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		equalIDs(t, got, ds.Filter(geom.NewPolyhedron(hs...), kws), "spkw")
	}
}

func TestSmokeORPKWHigh(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 3, Objects: 400, Dim: 3, Vocab: 50, DocLen: 5})
	ix, err := BuildORPKWHigh(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for q := 0; q < 50; q++ {
		rect := workload.RandRect(rng, 3, 0.5)
		kws := workload.RandKeywords(rng, 50, 2)
		got, _, err := ix.CollectInto(rect, kws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		equalIDs(t, got, ds.Filter(rect, kws), "orpkw-high")
	}
}

func TestSmokeSRPKW(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 4, Objects: 400, Dim: 2, Vocab: 50, DocLen: 5})
	ix, err := BuildSRPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for q := 0; q < 50; q++ {
		s := geom.NewSphere(geom.Point{rng.Float64(), rng.Float64()}, 0.05+rng.Float64()*0.3)
		kws := workload.RandKeywords(rng, 50, 2)
		got, _, err := ix.CollectInto(s, kws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		equalIDs(t, got, ds.Filter(s, kws), "srpkw")
	}
}

func TestSmokeLinfNN(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 5, Objects: 300, Dim: 2, Vocab: 30, DocLen: 5})
	ix, err := BuildLinfNN(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	for q := 0; q < 25; q++ {
		qp := geom.Point{rng.Float64(), rng.Float64()}
		kws := workload.RandKeywords(rng, 30, 2)
		tt := 1 + rng.Intn(8)
		res, _, err := ix.Query(qp, tt, kws, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		// Ground truth.
		match := ds.Filter(geom.FullSpace{}, kws)
		sort.Slice(match, func(a, b int) bool {
			da, db := qp.LInf(ds.Point(match[a])), qp.LInf(ds.Point(match[b]))
			if da != db {
				return da < db
			}
			return match[a] < match[b]
		})
		wantLen := tt
		if len(match) < tt {
			wantLen = len(match)
		}
		if len(res) != wantLen {
			t.Fatalf("linf-nn: got %d results, want %d", len(res), wantLen)
		}
		for i, r := range res {
			wd := qp.LInf(ds.Point(match[i]))
			if r.Dist != wd {
				t.Fatalf("linf-nn: rank %d distance %v, want %v", i, r.Dist, wd)
			}
		}
	}
}

func TestSmokeL2NN(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 6, Objects: 300, Dim: 2, Vocab: 30, DocLen: 5, Points: "grid", GridSide: 1 << 12})
	ix, err := BuildL2NN(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for q := 0; q < 20; q++ {
		qp := geom.Point{float64(rng.Int63n(1 << 12)), float64(rng.Int63n(1 << 12))}
		kws := workload.RandKeywords(rng, 30, 2)
		tt := 1 + rng.Intn(6)
		res, _, err := ix.Query(qp, tt, kws, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		match := ds.Filter(geom.FullSpace{}, kws)
		sort.Slice(match, func(a, b int) bool {
			da, db := qp.L2Sq(ds.Point(match[a])), qp.L2Sq(ds.Point(match[b]))
			if da != db {
				return da < db
			}
			return match[a] < match[b]
		})
		wantLen := tt
		if len(match) < tt {
			wantLen = len(match)
		}
		if len(res) != wantLen {
			t.Fatalf("l2-nn: got %d results, want %d", len(res), wantLen)
		}
		for i, r := range res {
			wd := qp.L2(ds.Point(match[i]))
			if r.Dist != wd {
				t.Fatalf("l2-nn: rank %d distance %v, want %v (query %d)", i, r.Dist, wd, q)
			}
		}
	}
}

func TestSmokeRRKW(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, d := range []int{1, 2} {
		rects := make([]RectObject, 300)
		for i := range rects {
			lo := make([]float64, d)
			hi := make([]float64, d)
			for j := 0; j < d; j++ {
				a, b := rng.Float64(), rng.Float64()*0.2
				lo[j], hi[j] = a, a+b
			}
			doc := make([]dataset.Keyword, 1+rng.Intn(5))
			for j := range doc {
				doc[j] = dataset.Keyword(rng.Intn(40))
			}
			rects[i] = RectObject{Rect: &geom.Rect{Lo: lo, Hi: hi}, Doc: doc}
		}
		ix, err := BuildRRKW(rects, 2)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 30; q++ {
			qr := workload.RandRect(rng, d, 0.3)
			kws := workload.RandKeywords(rng, 40, 2)
			got, _, err := ix.CollectInto(qr, kws, QueryOpts{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var want []int32
			for i, r := range rects {
				if !ix.Dataset().HasAll(int32(i), kws) {
					continue
				}
				if r.Rect.IntersectsRect(qr.Lo, qr.Hi) {
					want = append(want, int32(i))
				}
			}
			equalIDs(t, got, want, "rrkw")
		}
	}
}

func TestSmokeKSI(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sets := make([][]int64, 6)
	for i := range sets {
		n := 20 + rng.Intn(100)
		for j := 0; j < n; j++ {
			sets[i] = append(sets[i], int64(rng.Intn(200)))
		}
	}
	ix, err := BuildKSI(sets, 2)
	if err != nil {
		t.Fatal(err)
	}
	member := func(s []int64, e int64) bool {
		for _, x := range s {
			if x == e {
				return true
			}
		}
		return false
	}
	for a := 0; a < len(sets); a++ {
		for b := a + 1; b < len(sets); b++ {
			got, _, err := ix.Report([]dataset.Keyword{dataset.Keyword(a), dataset.Keyword(b)}, QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			seen := map[int64]bool{}
			for _, e := range sets[a] {
				if !seen[e] && member(sets[b], e) {
					seen[e] = true
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("ksi %d&%d: got %d, want %d", a, b, len(got), want)
			}
			empty, _, err := ix.Empty([]dataset.Keyword{dataset.Keyword(a), dataset.Keyword(b)})
			if err != nil {
				t.Fatal(err)
			}
			if empty != (want == 0) {
				t.Fatalf("ksi emptiness %d&%d: got %v, want %v", a, b, empty, want == 0)
			}
		}
	}
}
