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
	"kwsc/internal/workload"
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

// The tightness discussion of Section 1.2: our index's measured emptiness
// cost at OUT=0 never exceeds a constant multiple of N^{1-1/k} on the
// worst-case-shaped input — i.e. the structure does not secretly defy the
// strong k-set-disjointness conjecture's target (which would require
// sub-N^{1-1/k} time).
func TestEmptinessMatchesDisjointnessBound(t *testing.T) {
	for _, k := range []int{2, 3} {
		n := 6000
		partial := int(0.9 * math.Pow(float64(5*n), 1-1/float64(k)))
		rng := rand.New(rand.NewSource(int64(k)))
		objs := make([]dataset.Object, n)
		for i := range objs {
			doc := []dataset.Keyword{dataset.Keyword(10 + rng.Intn(200))}
			for w := 0; w < k; w++ {
				lo := w * partial
				if i >= lo && i < lo+partial {
					doc = append(doc, dataset.Keyword(w))
				}
			}
			objs[i] = dataset.Object{
				Point: geom.Point{rng.Float64(), rng.Float64()},
				Doc:   doc,
			}
		}
		ds := dataset.MustNew(objs)
		ix, err := BuildKSIFromDataset(ds, k)
		if err != nil {
			t.Fatal(err)
		}
		ws := make([]dataset.Keyword, k)
		for i := range ws {
			ws[i] = dataset.Keyword(i)
		}
		empty, st, err := ix.Empty(ws)
		if err != nil {
			t.Fatal(err)
		}
		if !empty {
			t.Fatal("planted lists are pairwise disjoint; intersection must be empty")
		}
		bound := 30 * math.Pow(float64(ds.N()), 1-1/float64(k))
		if float64(st.Ops) > bound {
			t.Fatalf("k=%d: emptiness cost %d exceeds %f", k, st.Ops, bound)
		}
	}
}

// The headline claim as a regression guard: on the worst-case-shaped
// workload, the measured ORP-KW query cost at OUT=0 scales with an exponent
// close to 1-1/k (work units are deterministic, so this is stable across
// machines; generous tolerance absorbs boundary effects of the small sweep).
func TestHeadlineExponentRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("N sweep too large for -short")
	}
	ops := func(objects int) float64 {
		ds, kws, slab := workload.GenAdversarial(workload.Adversarial{
			Seed: 42, Objects: objects, Dim: 2, K: 2,
		})
		ix, err := BuildORPKW(ds, 2)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := ix.CollectInto(slab, kws, QueryOpts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Reported != 0 {
			t.Fatal("adversarial slab must have OUT=0")
		}
		return float64(st.Ops)
	}
	nsmall, nbig := 1<<13, 1<<17 // 16x data
	lo, hi := ops(nsmall), ops(nbig)
	exponent := math.Log(hi/lo) / math.Log(float64(nbig)/float64(nsmall))
	if exponent < 0.2 || exponent > 0.72 {
		t.Fatalf("ORP-KW OUT=0 exponent drifted to %.3f (ops %v -> %v); expected ~0.5",
			exponent, lo, hi)
	}
	// And the absolute cost stays within a constant factor of N^{1/2}.
	bound := 8 * math.Sqrt(float64(nbig*6))
	if hi > bound {
		t.Fatalf("ops %v exceed %v at N~%d", hi, bound, nbig*6)
	}
}
