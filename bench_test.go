package kwsc

// Wall time per query for the experiments of DESIGN.md Section 5:
// BenchmarkTable1 runs every row of internal/table1, whose exponent fits
// cmd/benchkw prints and whose bounds TestTable1 checks; the E1 and E2
// families keep their names and time the rows' planted fixture beside the
// index's resident bytes.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path"
	"runtime"
	"testing"

	"kwsc/internal/core"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/obs"
	"kwsc/internal/table1"
	"kwsc/internal/workload"
)

// collectHandles answers q and ws with no options, returning the handles.
func collectHandles(ix DynamicIndex, q *Rect, ws []Keyword) ([]int64, QueryStats, error) {
	var out []int64
	st, err := ix.Query(q, ws, QueryOpts{}, func(h int64, _ *Object) { out = append(out, h) })
	return out, st, err
}

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
	ds, kws, region := table1.Planted(1, n, 2, k)
	ix, resident := residentAfter(func() *ORPKW {
		ix, err := NewORPKW(ds, k)
		if err != nil {
			b.Fatal(err)
		}
		return ix
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := ix.CollectInto(region, kws, QueryOpts{}, nil)
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
				if _, _, err := ix.CollectInto(region, kws, QueryOpts{}, nil); err != nil {
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
			if _, _, err := ix.CollectInto(region, kws, QueryOpts{}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E2: ORP-KW d>=3 via dimension reduction (Theorem 2, row 2) -------------

func BenchmarkE2ORPKW3D(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 13} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			ds, kws, region := table1.Planted(4, n, 3, 2)
			ix, resident := residentAfter(func() *ORPKWHigh {
				ix, err := NewORPKWHigh(ds, 2)
				if err != nil {
					b.Fatal(err)
				}
				return ix
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.CollectInto(region, kws, QueryOpts{}, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(resident), "bytes-resident")
		})
	}
}

// --- E1–E9, F1, F2: every case of internal/table1 --------------------------

// BenchmarkTable1 times each case's query stream on its instances at the
// case's Test sizes, one sub-benchmark an instance, named row/case/size.
func BenchmarkTable1(b *testing.B) {
	for _, r := range table1.Rows {
		env := table1.Env{Seed: 1, Rng: rand.New(rand.NewSource(1 + r.Seed))}
		for _, c := range r.Cases {
			for _, at := range c.Sizes[table1.Test] {
				b.Run(path.Join(r.ID, c.Name, fmt.Sprintf("n=%d,x=%d,out=%d", at.Objects, at.X, at.Out)), func(b *testing.B) {
					in, err := c.Gen(env, at)
					if err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := in.Run(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
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
			if _, _, err := ix.CollectInto(region, kws, QueryOpts{}, nil); err != nil {
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
			if _, _, err := ix.CollectInto(hs, kws, QueryOpts{}, nil); err != nil {
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

// heavy-core's shape at a thirty-second of its N: a planted k = 3 triple in
// an eighth of the objects, so only the top few levels have keywords to hang
// and the kd pass carries most of the build.
func BenchmarkBuildORPKWPlanted(b *testing.B) {
	ds, _, _ := plantedFixture(22, 1<<13, 2, 3, 64, 1<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewORPKW(ds, 3); err != nil {
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

// Rank space over raw coordinates, heavy-core's set-up size: one sort per
// dimension, the first step of every ORP-KW build.
func BenchmarkNewRankSpace(b *testing.B) {
	ds := workload.Gen(workload.Config{Seed: 21, Objects: 1 << 18, Dim: 2, Vocab: 256, DocLen: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dataset.NewRankSpace(ds)
	}
}

// The dimension-reduction build: one secondary framework per x-tree node, so
// its cost is the per-framework set-up times the secondaries.
func BenchmarkBuildORPKWHigh(b *testing.B) {
	ds := workload.Gen(workload.Config{Seed: 20, Objects: 1 << 12, Dim: 3, Vocab: 256, DocLen: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewORPKWHigh(ds, 2); err != nil {
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

// Steady-state query allocation profile: CollectInto into a nil buffer
// allocates only the result slice; with a warmed buffer it allocates nothing.
func BenchmarkORPKW2DCollect(b *testing.B) {
	ds, kws, region := plantedFixture(24, 1<<15, 2, 2, 64, 1<<12)
	ix, err := NewORPKW(ds, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.CollectInto(region, kws, QueryOpts{}, nil); err != nil {
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

// Dynamization: amortized insertion cost through the logarithmic method,
// with no reads, so carries gather columns and index nothing.
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
	if _, _, err := collectHandles(d, q, []Keyword{1, 9}); err != nil { // builds the buckets
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := collectHandles(d, q, []Keyword{1, 9}); err != nil {
			b.Fatal(err)
		}
	}
}

// One dynamic shard shaped like rw-mixed's: 10 000 live objects of a
// vocabulary of 1 000 after 1 500 inserts and 1 500 deletes of the oldest, so
// queries cross the write buffer, several Bentley–Saxe buckets and their
// tombstones. An op is what the serving layer does per shard leg: one Query
// at side 0.1, k=2, Limit 100. buckets/op is
// the occupied buckets each query runs over; units/op the work units it is
// charged (a bucket a query keyword is absent from costs none).
func BenchmarkDynamicQueryShard(b *testing.B) {
	const live, churn, vocab = 10_000, 1_500, 1000
	all := workload.Gen(workload.Config{Seed: 1, Objects: live + churn, Dim: 2, Vocab: vocab, DocLen: 6})
	d, err := NewDynamicORPKW(2, 2, 0)
	if err != nil {
		b.Fatal(err)
	}
	var handles []int64
	for i := 0; i < all.Len(); i++ {
		h, err := d.Insert(*all.Object(int32(i)))
		if err != nil {
			b.Fatal(err)
		}
		handles = append(handles, h)
		if i >= live {
			if _, err := d.Delete(handles[i-live]); err != nil {
				b.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	rects := make([]*Rect, 4096)
	kws := make([][]Keyword, len(rects))
	for i := range rects {
		rects[i], kws[i] = workload.RandRect(rng, 2, 0.1), workload.RandKeywords(rng, vocab, 2)
	}
	report := func(int64, *Object) {}
	opts := QueryOpts{Limit: 100}
	if _, err := d.Query(rects[0], kws[0], opts, report); err != nil { // builds the buckets
		b.Fatal(err)
	}
	var units int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, ws := rects[i%len(rects)], kws[i%len(rects)]
		st, err := d.Query(q, ws, opts, report)
		if err != nil {
			b.Fatal(err)
		}
		units += st.Ops
	}
	b.ReportMetric(float64(d.NumBuckets()), "buckets/op")
	b.ReportMetric(float64(units)/float64(b.N), "units/op")
}
