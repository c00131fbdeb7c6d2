package kwsc

// One benchmark family per experiment of DESIGN.md Section 5, each
// regenerating the behavior behind one row of the paper's Table 1 or one of
// its figures. The benchmarks measure wall time per query; the
// machine-independent exponent fits over N/OUT/t sweeps are produced by
// cmd/benchkw, which shares these workloads.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"kwsc/internal/core"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/obs"
	"kwsc/internal/spart"
	"kwsc/internal/workload"
)

// TestMain emits the metrics registry after a benchmark run as a single
// `# kwsc-metrics:` line, which cmd/benchsave embeds in the committed
// baseline snapshot ({records, metrics}); plain test runs stay silent.
func TestMain(m *testing.M) {
	code := m.Run()
	if f := flag.Lookup("test.bench"); code == 0 && f != nil && f.Value.String() != "" {
		if data, err := obs.Default().Snapshot().MarshalCompact(); err == nil {
			fmt.Printf("# kwsc-metrics: %s\n", data)
		}
	}
	os.Exit(code)
}

// plantedFixture builds a planted dataset with OUT matches inside the target
// region and per-keyword posting lists of size OUT + partial.
func plantedFixture(seed int64, objects, dim, k, out, partial int) (*Dataset, []Keyword, *Rect) {
	return workload.GenPlanted(workload.Planted{
		Seed: seed, Objects: objects, Dim: dim, K: k, Out: out, Partial: partial,
	})
}

// residentAfter runs build between two GC-settled heap readings and returns
// the built value plus the live bytes it retains. The forced collections
// make HeapAlloc a resident-set measure rather than an allocation counter:
// everything the build churned through and dropped has been reclaimed by the
// second reading, so the delta is (up to unrelated background noise) the
// index itself. cmd/benchsave parses the "bytes-resident" metric the E1/E2
// families report from it into the snapshot's bytes_resident field.
func residentAfter[T any](build func() T) (T, int64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ix := build()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return ix, max(0, int64(m1.HeapAlloc)-int64(m0.HeapAlloc))
}

// --- E1: ORP-KW d=2 (Theorem 1, Table 1 row 1) ------------------------------

// benchE1Collect builds at (n, k), then measures the planted conjunctive
// query and reports the resident bytes of the index.
func benchE1Collect(b *testing.B, n, k int) {
	ds, kws, region := plantedFixture(1, n, 2, k, 64, n/8)
	ix, resident := residentAfter(func() *ORPKW {
		ix, err := NewORPKW(ds, k)
		if err != nil {
			b.Fatal(err)
		}
		return ix
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := ix.Collect(region, kws, QueryOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != 64 {
			b.Fatalf("OUT drifted: %d", len(got))
		}
	}
	// After the loop: ResetTimer clears extra metrics (go1.24), so the
	// report must come last.
	b.ReportMetric(float64(resident), "bytes-resident")
}

func BenchmarkE1ORPKW2D(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		for _, k := range []int{2, 3} {
			b.Run(fmt.Sprintf("N=%d/k=%d", n, k), func(b *testing.B) { benchE1Collect(b, n, k) })
		}
	}
}

// BenchmarkE1ORPKW2D1M is the E1 query at a million objects. Opt-in via
// KWSC_BENCH_1M=1 (`make bench-1m`): the build takes minutes and has no place
// in the default tier-1 sweep.
func BenchmarkE1ORPKW2D1M(b *testing.B) {
	if os.Getenv("KWSC_BENCH_1M") == "" {
		b.Skip("set KWSC_BENCH_1M=1 (or run `make bench-1m`) for the N=1M tier")
	}
	benchE1Collect(b, 1<<20, 2)
}

// OUT sweep at fixed N: the OUT^{1/k} factor of the query bound.
func BenchmarkE1OutSweep(b *testing.B) {
	const n = 1 << 15
	for _, out := range []int{1, 16, 256, 2048} {
		b.Run(fmt.Sprintf("OUT=%d", out), func(b *testing.B) {
			ds, kws, region := plantedFixture(2, n, 2, 2, out, n/8)
			ix, err := NewORPKW(ds, 2)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.Collect(region, kws, QueryOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The two naive baselines of Section 1 on the E1 workload.
func BenchmarkE1Baselines(b *testing.B) {
	const n = 1 << 15
	ds, kws, region := plantedFixture(3, n, 2, 2, 64, n/8)
	b.Run("keywords-only", func(b *testing.B) {
		inv, _ := NewInvertedIndex(ds)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = inv.KeywordsOnly(region, kws)
		}
	})
	b.Run("structured-only", func(b *testing.B) {
		so, _ := NewStructuredOnly(ds)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _, _ = so.Query(region, kws)
		}
	})
	b.Run("paper-index", func(b *testing.B) {
		ix, err := NewORPKW(ds, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := ix.Collect(region, kws, QueryOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E2: ORP-KW d>=3 via dimension reduction (Theorem 2, row 2) -------------

func BenchmarkE2ORPKW3D(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 13} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			ds, kws, region := plantedFixture(4, n, 3, 2, 64, n/8)
			ix, resident := residentAfter(func() *ORPKWHigh {
				ix, err := NewORPKWHigh(ds, 2)
				if err != nil {
					b.Fatal(err)
				}
				return ix
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.Collect(region, kws, QueryOpts{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(resident), "bytes-resident")
		})
	}
}

// --- E3: ORP-KW as LC-KW (Theorem 5 route, row 3) ----------------------------

func BenchmarkE3RectViaLCKW(b *testing.B) {
	const n = 1 << 14
	ds, kws, region := plantedFixture(5, n, 2, 2, 64, n/8)
	ix, err := NewLCKW(ds, LCKWConfig{K: 2})
	if err != nil {
		b.Fatal(err)
	}
	hs := region.Halfspaces()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.CollectConstraints(hs, kws, QueryOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: RR-KW (Corollary 3, row 4) ------------------------------------------

func benchRRKW(b *testing.B, d, n int) {
	rng := rand.New(rand.NewSource(6))
	rects := make([]RectObject, n)
	for i := range rects {
		lo := make([]float64, d)
		hi := make([]float64, d)
		for j := 0; j < d; j++ {
			lo[j] = rng.Float64()
			hi[j] = lo[j] + rng.Float64()*0.05
		}
		doc := make([]Keyword, 4)
		for j := range doc {
			doc[j] = Keyword(rng.Intn(64))
		}
		rects[i] = RectObject{Rect: &Rect{Lo: lo, Hi: hi}, Doc: doc}
	}
	ix, err := NewRRKW(rects, 2)
	if err != nil {
		b.Fatal(err)
	}
	q := workload.RandRect(rng, d, 0.2)
	kws := []Keyword{1, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Collect(q, kws, QueryOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4RRKWTemporal1D(b *testing.B) { benchRRKW(b, 1, 1<<14) }
func BenchmarkE4RRKWSpatial2D(b *testing.B)  { benchRRKW(b, 2, 1<<12) }

// --- E5: L∞ NN-KW (Corollary 4, row 5) ---------------------------------------

func BenchmarkE5LinfNN(b *testing.B) {
	ds := workload.Gen(workload.Config{Seed: 7, Objects: 1 << 14, Dim: 2, Vocab: 64, DocLen: 5})
	ix, err := NewLinfNN(ds, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			rng := rand.New(rand.NewSource(70))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := Point{rng.Float64(), rng.Float64()}
				if _, _, err := ix.Query(q, t, []Keyword{1, 2}, QueryOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6: LC-KW (Theorem 5, rows 6-7) -----------------------------------------

func BenchmarkE6LCKW(b *testing.B) {
	ds := workload.Gen(workload.Config{Seed: 8, Objects: 1 << 14, Dim: 2, Vocab: 64, DocLen: 5})
	ix, err := NewLCKW(ds, LCKWConfig{K: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			rng := rand.New(rand.NewSource(80))
			hs := workload.RandHalfspaces(rng, 2, s, 0.3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.CollectConstraints(hs, []Keyword{1, 2}, QueryOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6b: crossing-sensitivity ablation (Willard vs grid substrate) ----------

func BenchmarkE6bSubstrates(b *testing.B) {
	ds := workload.Gen(workload.Config{Seed: 9, Objects: 1 << 13, Dim: 2, Vocab: 64, DocLen: 5})
	for _, sub := range []struct {
		name  string
		split spart.Splitter
	}{
		{"willard", &spart.Willard2D{}},
		{"grid", &spart.Grid2D{G: 4}},
	} {
		b.Run(sub.name, func(b *testing.B) {
			ix, err := NewLCKW(ds, LCKWConfig{K: 2, Splitter: sub.split})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(90))
			hs := workload.RandHalfspaces(rng, 2, 1, 0.4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.CollectConstraints(hs, []Keyword{1, 2}, QueryOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E7: SRP-KW via lifting (Corollary 6, rows 8-9) ---------------------------

func BenchmarkE7SRPKW(b *testing.B) {
	ds := workload.Gen(workload.Config{Seed: 10, Objects: 1 << 13, Dim: 2, Vocab: 64, DocLen: 5})
	ix, err := NewSRPKW(ds, 2)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSphere(Point{rng.Float64(), rng.Float64()}, 0.1)
		if _, _, err := ix.Collect(s, []Keyword{1, 2}, QueryOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: L2 NN-KW (Corollary 7, rows 10-11) -----------------------------------

func BenchmarkE8L2NN(b *testing.B) {
	ds := workload.Gen(workload.Config{Seed: 11, Objects: 1 << 12, Dim: 2, Vocab: 64, DocLen: 5, Points: "grid", GridSide: 1 << 16})
	ix, err := NewL2NN(ds, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range []int{1, 16} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			rng := rand.New(rand.NewSource(110))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := Point{float64(rng.Int63n(1 << 16)), float64(rng.Int63n(1 << 16))}
				if _, _, err := ix.Query(q, t, []Keyword{1, 2}, QueryOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E9: k-SI and the tightness terms of Section 1.2 ---------------------------

func BenchmarkE9KSI(b *testing.B) {
	const n = 1 << 15
	for _, out := range []int{0, 64, 4096} {
		b.Run(fmt.Sprintf("OUT=%d", out), func(b *testing.B) {
			ds, kws, _ := plantedFixture(12, n, 2, 2, out, n/8)
			ix, err := NewKSIFromDataset(ds, 2)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, _, err := ix.Report(kws, QueryOpts{})
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != out {
					b.Fatalf("OUT drifted: %d", len(got))
				}
			}
		})
	}
	b.Run("baseline-invidx", func(b *testing.B) {
		ds, kws, _ := plantedFixture(12, n, 2, 2, 64, n/8)
		inv, _ := NewInvertedIndex(ds)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = inv.Intersect(kws)
		}
	})
}

// --- F1: crossing-node profile of a vertical line (Figure 1 / Lemma 10) -------

func BenchmarkF1VerticalLineCrossing(b *testing.B) {
	ds := workload.Gen(workload.Config{Seed: 13, Objects: 1 << 14, Dim: 2, Vocab: 16, DocLen: 4})
	ix, err := NewORPKW(ds, 2)
	if err != nil {
		b.Fatal(err)
	}
	x := float64(ds.Len() / 2)
	line := &Rect{Lo: []float64{x, -1e308}, Hi: []float64{x, 1e308}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Framework().CrossingCost(line, []Keyword{0, 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F2: type-1/type-2 decomposition (Figure 2) --------------------------------

func BenchmarkF2TypeProfile(b *testing.B) {
	ds := workload.Gen(workload.Config{Seed: 14, Objects: 1 << 12, Dim: 3, Vocab: 32, DocLen: 4})
	ix, err := NewORPKWHigh(ds, 2)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(140))
	q := workload.RandRect(rng, 3, 0.4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Type2Profile(q, []Keyword{0, 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- A1: ablation — kd route vs partition-tree route for rectangles ------------

func BenchmarkA1Routes(b *testing.B) {
	ds, kws, region := plantedFixture(15, 1<<14, 2, 2, 64, 1<<11)
	b.Run("kd-route", func(b *testing.B) {
		ix, err := NewORPKW(ds, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := ix.Collect(region, kws, QueryOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("partition-route", func(b *testing.B) {
		ix, err := NewLCKW(ds, LCKWConfig{K: 2})
		if err != nil {
			b.Fatal(err)
		}
		hs := region.Halfspaces()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := ix.CollectConstraints(hs, kws, QueryOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- A2: ablation — the k=2 specialization against the general framework -------

func BenchmarkA2TwoSetIntersection(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	sets := make([][]int64, 8)
	for i := range sets {
		for j := 0; j < 4096; j++ {
			sets[i] = append(sets[i], int64(rng.Intn(1<<15)))
		}
	}
	ix, err := NewKSI(sets, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := Keyword(i % len(sets))
		c := Keyword((i + 3) % len(sets))
		if a == c {
			continue
		}
		if _, _, err := ix.Report([]Keyword{a, c}, QueryOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Build-time benchmarks: index construction cost per problem.
func BenchmarkBuildORPKW(b *testing.B) {
	ds := workload.Gen(workload.Config{Seed: 17, Objects: 1 << 13, Dim: 2, Vocab: 256, DocLen: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewORPKW(ds, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildLCKW(b *testing.B) {
	ds := workload.Gen(workload.Config{Seed: 18, Objects: 1 << 12, Dim: 2, Vocab: 256, DocLen: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewLCKW(ds, LCKWConfig{K: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// Parallel construction: the same ORP-KW build at increasing worker budgets.
// On a multi-core machine the par=4 and par=8 rows should come in well under
// par=1; on a single core they coincide (the gate hands out no tokens).
func BenchmarkBuildParallel(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 18} {
		b.Run(fmt.Sprintf("ORPKW2D/N=%d", n), func(b *testing.B) {
			ds := workload.Gen(workload.Config{Seed: 19, Objects: n, Dim: 2, Vocab: 256, DocLen: 5})
			for _, par := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := NewORPKW(ds, 2, WithParallelism(par)); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// Steady-state query allocation profile: Collect allocates only the result
// slice; CollectInto with a warmed buffer allocates nothing.
func BenchmarkORPKW2DCollect(b *testing.B) {
	ds, kws, region := plantedFixture(24, 1<<15, 2, 2, 64, 1<<12)
	ix, err := NewORPKW(ds, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Collect(region, kws, QueryOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkORPKW2DCollectInto(b *testing.B) {
	ds, kws, region := plantedFixture(24, 1<<15, 2, 2, 64, 1<<12)
	ix, err := NewORPKW(ds, 2)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]int32, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, _, err := ix.CollectInto(region, kws, QueryOpts{}, buf)
		if err != nil {
			b.Fatal(err)
		}
		buf = ids[:0]
	}
}

// The stop-node intersection (DESIGN.md §3 substitution 5). dense: a planted
// k=3 triple whose three posting lists are each N/8 long, asked over random
// rectangles, so nearly every query ends at nodes where the small keywords'
// materialized lists are dense — bitmaps over the node's rank interval, ANDed
// a word at a time. sparse: a Zipf k=2 corpus of tiny-scatter's shape, whose
// stop nodes hold sparse lists — the cursor leapfrog, which the bitmaps
// bypass. clipped: the same corpus at tiny-scatter's rectangle side of 0.05,
// keeping only the queries whose descent stops at the root (no pivot is
// examined): every small list there is sparse, so each query is a crossing
// sparse root that clips its cells before the leapfrog. units/op is the
// machine-independent cost (node visits, pivot checks, bitmap words and
// candidates); nodes/op counts node visits, the clip's cells among them.
func BenchmarkStopNodeIntersect(b *testing.B) {
	const n = 1 << 16
	planted, plantedKws, _ := plantedFixture(1, n, 2, 3, 64, n/8)
	const vocab = 1000
	zipf := workload.Gen(workload.Config{Seed: 1, Objects: 12_500, Dim: 2, Vocab: vocab, DocLen: 6})
	for _, corpus := range []struct {
		name     string
		ds       *Dataset
		k        int
		next     func(*rand.Rand) (*Rect, []Keyword)
		rootStop bool // keep only queries that stop at the root
	}{
		{"dense", planted, 3, func(rng *rand.Rand) (*Rect, []Keyword) {
			return workload.RandRect(rng, 2, 0.2+0.3*rng.Float64()), plantedKws
		}, false},
		{"sparse", zipf, 2, func(rng *rand.Rand) (*Rect, []Keyword) {
			return workload.RandRect(rng, 2, 0.05+0.3*rng.Float64()), workload.RandKeywords(rng, vocab, 2)
		}, false},
		{"clipped", zipf, 2, func(rng *rand.Rand) (*Rect, []Keyword) {
			return workload.RandRect(rng, 2, 0.05), workload.RandKeywords(rng, vocab, 2)
		}, true},
	} {
		b.Run(corpus.name, func(b *testing.B) {
			ix, err := NewORPKW(corpus.ds, corpus.k)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			rects := make([]*Rect, 256)
			kws := make([][]Keyword, len(rects))
			buf := make([]int32, 0, 1024)
			for i := range rects {
				for {
					rects[i], kws[i] = corpus.next(rng)
					if !corpus.rootStop {
						break
					}
					if _, st, err := ix.CollectInto(rects[i], kws[i], QueryOpts{}, buf); err == nil && st.PivotChecks == 0 && st.MatScanned > 0 {
						break
					}
				}
			}
			var ops, nodes int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids, st, err := ix.CollectInto(rects[i%len(rects)], kws[i%len(rects)], QueryOpts{}, buf)
				if err != nil {
					b.Fatal(err)
				}
				ops, nodes = ops+st.Ops, nodes+int64(st.NodesVisited)
				buf = ids[:0]
			}
			b.ReportMetric(float64(ops)/float64(b.N), "units/op")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}

// The observability overhead pair: the same hot path with registry updates
// on (the default) and off. The acceptance bar is <5% ns/op overhead and
// identical (zero) allocs/op.
func BenchmarkORPKW2DCollectIntoMetricsOn(b *testing.B)  { benchCollectIntoMetrics(b, true) }
func BenchmarkORPKW2DCollectIntoMetricsOff(b *testing.B) { benchCollectIntoMetrics(b, false) }

func benchCollectIntoMetrics(b *testing.B, on bool) {
	ds, kws, region := plantedFixture(24, 1<<15, 2, 2, 64, 1<<12)
	ix, err := NewORPKW(ds, 2)
	if err != nil {
		b.Fatal(err)
	}
	EnableMetrics(on)
	defer EnableMetrics(true)
	buf := make([]int32, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, _, err := ix.CollectInto(region, kws, QueryOpts{}, buf)
		if err != nil {
			b.Fatal(err)
		}
		buf = ids[:0]
	}
}

// Keep the imports honest.
var (
	_ = core.QueryOpts{}
	_ = dataset.Keyword(0)
	_ geom.Point
)

// --- Extension benchmarks (beyond the paper) -----------------------------------

// Dynamization: amortized insertion cost through the logarithmic method.
func BenchmarkExtDynamicInsert(b *testing.B) {
	d, err := NewDynamicORPKW(2, 2, 64)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := Object{
			Point: Point{rng.Float64(), rng.Float64()},
			Doc:   []Keyword{Keyword(rng.Intn(16)), Keyword(16 + rng.Intn(16))},
		}
		if _, err := d.Insert(obj); err != nil {
			b.Fatal(err)
		}
	}
}

// Dynamization: query over the multi-part structure.
func BenchmarkExtDynamicQuery(b *testing.B) {
	d, err := NewDynamicORPKW(2, 2, 64)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 1<<13; i++ {
		obj := Object{
			Point: Point{rng.Float64(), rng.Float64()},
			Doc:   []Keyword{Keyword(rng.Intn(8)), Keyword(8 + rng.Intn(8))},
		}
		if _, err := d.Insert(obj); err != nil {
			b.Fatal(err)
		}
	}
	q := NewRect([]float64{0.25, 0.25}, []float64{0.75, 0.75})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Collect(q, []Keyword{1, 9}); err != nil {
			b.Fatal(err)
		}
	}
}

// The Cohen–Porat 2-SI ancestor structure on the E9 workload.
func BenchmarkExtTwoSI(b *testing.B) {
	ds, kws, _ := plantedFixture(22, 1<<15, 2, 2, 64, 1<<12)
	ix, _ := NewTwoSI(ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Report(kws[0], kws[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// Word-parallel 1D bitmaps on dense keywords.
func BenchmarkExtWordParallel1D(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	objs := make([]Object, 1<<16)
	for i := range objs {
		doc := []Keyword{2 + Keyword(rng.Intn(62))}
		if rng.Float64() < 0.3 {
			doc = append(doc, 0)
		}
		if rng.Float64() < 0.3 {
			doc = append(doc, 1)
		}
		objs[i] = Object{Point: Point{rng.Float64()}, Doc: doc}
	}
	ds, err := NewDataset(objs)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := NewWordParallel1D(ds)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Float64() * 0.8
		if _, _, err := ix.Collect(lo, lo+0.1, []Keyword{0, 1}); err != nil {
			b.Fatal(err)
		}
	}
}
