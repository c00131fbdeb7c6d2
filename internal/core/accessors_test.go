package core

import (
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/workload"
)

// Exercise the small accessor and audit surfaces across every index type.
func TestAccessorSurfaces(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 1, Objects: 200, Dim: 2, Vocab: 20, DocLen: 4})

	orp, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := orp.Framework().CollectInto(geom.UniverseRect(2), []dataset.Keyword{0, 1}, QueryOpts{}, nil); err != nil {
		t.Fatal(err)
	}

	sp, err := BuildSPKW(ds, SPKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Framework() == nil || sp.K() != 2 {
		t.Fatal("SPKW accessors broken")
	}
	if sp.Space().TotalWords(0) <= 0 { // 0 selects the 64-bit default
		t.Fatal("SPKW space audit empty")
	}

	srp, err := BuildSRPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if srp.K() != 2 || srp.Space().TotalWords(64) <= 0 {
		t.Fatal("SRPKW accessors broken")
	}
	if _, _, err := srp.CollectInto(geom.NewSphere(geom.Point{0.5}, 1), []dataset.Keyword{0, 1}, QueryOpts{}, nil); err == nil {
		t.Fatal("dimension mismatch must error")
	}

	grid := workload.Gen(workload.Config{Seed: 2, Objects: 150, Dim: 2, Vocab: 20, DocLen: 4, Points: "grid", GridSide: 64})
	l2, err := BuildL2NN(grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Space().TotalWords(64) <= 0 {
		t.Fatal("L2NN space audit empty")
	}

	ksi, err := BuildKSI([][]int64{{1, 2}, {2, 3}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ksi.Dataset() == nil || ksi.Space().TotalWords(64) <= 0 {
		t.Fatal("KSI accessors broken")
	}

	ds3 := workload.Gen(workload.Config{Seed: 3, Objects: 200, Dim: 3, Vocab: 15, DocLen: 4})
	hi, err := BuildORPKWHigh(ds3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hi.K() != 2 {
		t.Fatal("ORPKWHigh.K broken")
	}

	dyn, err := NewDynamicORPKW(2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.K() != 2 {
		t.Fatal("DynamicORPKW.K broken")
	}
	for i := 0; i < 40; i++ {
		if _, err := dyn.Insert(dataset.Object{Point: geom.Point{float64(i), 0}, Doc: []dataset.Keyword{0, 1}}); err != nil {
			t.Fatal(err)
		}
	}
	occ := dyn.Buckets()
	total := 0
	for _, c := range occ {
		total += c
	}
	if total+8 < 40 { // at most one buffer of 8 outside buckets
		t.Fatalf("bucket occupancy %v accounts for too few objects", occ)
	}
}

func TestRRKWRectAccessor(t *testing.T) {
	rects := []RectObject{
		{Rect: geom.NewRect([]float64{1}, []float64{2}), Doc: []dataset.Keyword{0, 1}},
		{Rect: geom.NewRect([]float64{3}, []float64{5}), Doc: []dataset.Keyword{0, 1}},
	}
	ix, err := BuildRRKW(rects, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r := ix.Rect(1); r.Lo[0] != 3 || r.Hi[0] != 5 {
		t.Fatalf("Rect(1) = %v", r)
	}
	if ix.Space().TotalWords(64) <= 0 {
		t.Fatal("RRKW space audit empty")
	}
}

func TestSpaceBreakdownWordCharging(t *testing.T) {
	s := SpaceBreakdown{NodeWords: 10, TensorBits: 130}
	if w := s.TotalWords(64); w != 10+3 { // ceil(130/64) = 3
		t.Fatalf("TotalWords(64) = %d, want 13", w)
	}
	if w := s.TotalWords(0); w != 13 { // default 64
		t.Fatalf("TotalWords(0) = %d, want 13", w)
	}
	if w := s.TotalWords(20); w != 10+7 { // paper's log N-bit words: ceil(130/20)
		t.Fatalf("TotalWords(20) = %d, want 17", w)
	}
}
