package core

import (
	"math/rand"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/workload"
)

// TestEstimateWorkBoundsOps: the root estimate is the same number in a built
// index and in a framework rebuilt from its flat image (whose root counts are
// recounted from the dataset); when the root is the
// query's stop node it bounds the work actually done — by the shortest list
// when some list is sparse, by the bitmap's words plus the shortest list when
// all are bitmaps — and the all-large case is the paper's formula over the
// root's exact document frequencies. A Zipf corpus supplies sparse root lists
// and all-large roots, a planted one roots whose lists are all dense.
func TestEstimateWorkBoundsOps(t *testing.T) {
	planted, _, _ := workload.GenPlanted(workload.Planted{Seed: 18, Objects: 8192, Dim: 2, K: 3, Out: 64, Partial: 1024})
	for _, tc := range []struct {
		name     string
		ds       *dataset.Dataset
		k, vocab int
		// The root cases the stream must reach: a stop node with a sparse
		// list, one with bitmaps only, and all keywords large.
		sparse, bitmaps, large bool
	}{
		{"zipf", workload.Gen(workload.Config{Seed: 17, Objects: 6000, Dim: 2, Vocab: 200, DocLen: 6}), 2, 200, true, false, true},
		{"planted-dense", planted, 3, 20, false, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := tc.ds
			ix, err := BuildORPKW(ds, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			img, err := ix.fw.ExportFlat()
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
			fw := ix.fw
			rng := rand.New(rand.NewSource(19))
			sawSparse, sawBitmaps, sawLarge := false, false, false
			for trial := 0; trial < 2000; trial++ {
				ws := workload.RandKeywords(rng, tc.vocab, tc.k)
				est := ix.EstimateWork(ws)
				if r := reopened.EstimateWork(ws); r != est {
					t.Fatalf("ws %v: built index estimates %d, reopened %d", ws, est, r)
				}
				// Replay the root's classification: how many keywords are
				// small there, the shortest of their lists, and whether every
				// one of them is a bitmap.
				small, shortest, allBitmaps := 0, ds.Len(), true
				out := newOutEstimate(ds.Len())
				for _, w := range ws {
					if _, large := fw.largeLookup(0, w); large {
						out.add(float64(df[w]))
						continue
					}
					small++
					shortest = min(shortest, df[w])
					mi := fw.matLookup(0, w)
					allBitmaps = allBitmaps && mi >= 0 && fw.matLists[mi].Rep == ListBitmap
				}
				if small == 0 {
					sawLarge = true
					nPow := pow(float64(ds.N()), 1-1/float64(tc.k))
					if want := int64(frameworkCost(nPow, tc.k, out.out(1))); est != want {
						t.Fatalf("ws %v all large: estimate %d, formula over true frequencies %d", ws, est, want)
					}
					continue
				}
				want := 1 + int64(shortest)
				if allBitmaps {
					sawBitmaps = true
					want += int64(bitmapWords(ds.Len()))
				} else {
					sawSparse = true
				}
				if est != want {
					t.Fatalf("ws %v: root stop node (all bitmaps=%v, shortest list %d) estimated %d, want %d", ws, allBitmaps, shortest, est, want)
				}
				_, st, err := ix.Collect(workload.RandRect(rng, 2, 0.1+0.9*rng.Float64()), ws, QueryOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if st.Ops > est {
					t.Fatalf("ws %v: root is the stop node, estimate %d, query cost %d", ws, est, st.Ops)
				}
			}
			if sawSparse != tc.sparse || sawBitmaps != tc.bitmaps || sawLarge != tc.large {
				t.Fatalf("stream covered sparse=%v bitmaps=%v large=%v root cases", sawSparse, sawBitmaps, sawLarge)
			}
			if got := ix.EstimateWork([]dataset.Keyword{1}); got != 0 {
				t.Fatalf("wrong arity estimates %d, want 0", got)
			}
		})
	}
}
