package core

import (
	"math/rand"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/workload"
)

// TestEstimateWorkBoundsOps: the root estimate is the same number in the
// pointer layout, the flat layout and a framework rebuilt from a flat image
// (whose root counts are recounted from the dataset); when the root is the
// query's stop node it bounds the work actually done; and the all-large case
// is the paper's formula over the root's exact document frequencies.
func TestEstimateWorkBoundsOps(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 17, Objects: 6000, Dim: 2, Vocab: 200, DocLen: 6})
	ptr, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := BuildORPKW(ds, 2, WithFlatLayout())
	if err != nil {
		t.Fatal(err)
	}
	img, err := flat.fw.ExportFlat()
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := NewFrameworkFromFlat(ds, img)
	if err != nil {
		t.Fatal(err)
	}

	df := make(map[dataset.Keyword]int)
	for i := 0; i < ds.Len(); i++ {
		for _, w := range ds.Doc(int32(i)) {
			df[w]++
		}
	}
	root := &ptr.fw.nodes[0]
	rng := rand.New(rand.NewSource(19))
	sawSmall, sawLarge := false, false
	for trial := 0; trial < 2000; trial++ {
		ws := workload.RandKeywords(rng, 200, 2)
		est := ptr.EstimateWork(ws)
		if f, r := flat.EstimateWork(ws), reopened.EstimateWork(ws); f != est || r != est {
			t.Fatalf("ws %v: pointer estimates %d, flat %d, reopened %d", ws, est, f, r)
		}
		_, l0 := root.large[ws[0]]
		_, l1 := root.large[ws[1]]
		if l0 && l1 {
			sawLarge = true
			out := newOutEstimate(ds.Len())
			out.add(float64(df[ws[0]]))
			out.add(float64(df[ws[1]]))
			if want := int64(frameworkCost(pow(float64(ds.N()), 0.5), 2, out.out(1))); est != want {
				t.Fatalf("ws %v all large: estimate %d, formula over true frequencies %d", ws, est, want)
			}
			continue
		}
		sawSmall = true
		_, st, err := ptr.Collect(workload.RandRect(rng, 2, 0.1+0.9*rng.Float64()), ws, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Ops > est {
			t.Fatalf("ws %v: root is the stop node, estimate %d, query cost %d", ws, est, st.Ops)
		}
	}
	if !sawSmall || !sawLarge {
		t.Fatalf("stream covered small=%v large=%v root cases, want both", sawSmall, sawLarge)
	}
	if got := ptr.EstimateWork([]dataset.Keyword{1}); got != 0 {
		t.Fatalf("wrong arity estimates %d, want 0", got)
	}
}
