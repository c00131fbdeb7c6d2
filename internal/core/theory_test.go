package core

// Tests that realize the paper's theoretical arguments as executable checks:
// the Appendix G reduction and the Lemma 8 algebra.

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

// Appendix G reduces k-SI reporting to L∞NN-KW: starting from t=1, issue an
// NN query with an arbitrary query point; if it reports fewer than t
// objects, it has found the entire D(w1..wk); otherwise double t. The test
// executes the reduction and checks it reproduces the exact intersection.
func TestAppendixGReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	objs := make([]dataset.Object, 400)
	for i := range objs {
		doc := make([]dataset.Keyword, 1+rng.Intn(4))
		for j := range doc {
			doc[j] = dataset.Keyword(rng.Intn(8))
		}
		objs[i] = dataset.Object{
			Point: geom.Point{rng.Float64(), rng.Float64()},
			Doc:   doc,
		}
	}
	ds := dataset.MustNew(objs)
	nn, err := BuildLinfNN(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	for a := dataset.Keyword(0); a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			ws := []dataset.Keyword{a, b}
			want := ds.Filter(geom.FullSpace{}, ws)
			// The reduction, verbatim: arbitrary query point, doubling t.
			q := geom.Point{0.37, 0.61}
			var res []NNResult
			for tt := 1; ; tt *= 2 {
				r, _, err := nn.Query(q, tt, ws, QueryOpts{})
				if err != nil {
					t.Fatal(err)
				}
				if len(r) < tt {
					res = r
					break
				}
				if tt > 2*ds.Len() {
					t.Fatal("doubling runaway; reduction broken")
				}
			}
			if len(res) != len(want) {
				t.Fatalf("(%d,%d): reduction found %d, intersection has %d",
					a, b, len(res), len(want))
			}
			got := make([]int32, len(res))
			for i, r := range res {
				got[i] = r.ID
			}
			sort.Slice(got, func(x, y int) bool { return got[x] < got[y] })
			sort.Slice(want, func(x, y int) bool { return want[x] < want[y] })
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("(%d,%d): element %d mismatch", a, b, i)
				}
			}
		}
	}
}

// Lemma 8's algebra: if an index achieves query time (3)
// O(N^{1-1/k} + N^{1-1/k} OUT^{1/k - eps} + OUT), then it achieves
// O(N^{1-delta} + OUT) with delta = min{1/k, eps/(1-1/k+eps)}. The proof
// splits on OUT vs N^{(1-1/k)/(1-1/k+eps)}; this test verifies both branch
// inequalities numerically over a grid of parameters.
func TestLemma8Algebra(t *testing.T) {
	for _, k := range []int{2, 3, 4, 8} {
		for _, eps := range []float64{0.01, 0.1, 0.25, 1.0 / float64(k) * 0.9} {
			invK := 1.0 / float64(k)
			delta := math.Min(invK, eps/(1-invK+eps))
			thresholdExp := (1 - invK) / (1 - invK + eps)
			for _, logN := range []float64{10, 20, 40} {
				n := math.Pow(2, logN)
				threshold := math.Pow(n, thresholdExp)
				for _, outFrac := range []float64{0.1, 0.5, 0.9, 1, 1.1, 2, 10} {
					out := threshold * outFrac
					if out > n || out < 1 {
						continue
					}
					// The middle term of (3), which the lemma shows is
					// dominated by N^{1-delta} + OUT in every case.
					lhs := math.Pow(n, 1-invK) * math.Pow(out, invK-eps)
					bound := math.Max(math.Pow(n, 1-delta), out)
					if lhs > bound*(1+1e-9) {
						t.Fatalf("k=%d eps=%.3f N=2^%.0f OUT=%.3g (threshold %.3g): %g > %g",
							k, eps, logN, out, threshold, lhs, bound)
					}
					// And the first term N^{1-1/k} is dominated as well
					// (delta <= 1/k by definition).
					if math.Pow(n, 1-invK) > math.Pow(n, 1-delta)*(1+1e-9) {
						t.Fatalf("k=%d eps=%.3f: N^{1-1/k} exceeds N^{1-delta}", k, eps)
					}
				}
			}
		}
	}
}
