// Command benchkw regenerates every experiment in DESIGN.md Section 5: one
// experiment per row of Table 1 of Lu & Tao (PODS 2023), plus the two
// figures and the ablations. Each experiment sweeps the variable its claim
// is stated in (N, OUT, t, k), measures the machine-independent query cost
// (work units: node visits + object examinations), fits a power law, and
// prints the fitted exponent next to the paper's predicted exponent.
//
// Usage:
//
//	benchkw [-exp all|e1,e2,...] [-quick] [-seed n]
//
// The output of a full run is recorded in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"

	"kwsc/internal/core"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/invidx"
	"kwsc/internal/obs"
	"kwsc/internal/spart"
	"kwsc/internal/workload"
)

var (
	flagExp     = flag.String("exp", "all", "comma-separated experiment ids (e1,e1b,e2,e3,e4,e5,e6,e6b,e7,e8,e9,f1,f2,a1,a2,a3,space,planner) or 'all'")
	flagQuick   = flag.Bool("quick", false, "smaller sweeps (CI-friendly)")
	flagSeed    = flag.Int64("seed", 1, "base RNG seed")
	flagMetrics = flag.Bool("metrics", false, "dump the metrics registry (Prometheus text format) after the run")
)

type experiment struct {
	id, title string
	run       func()
}

func main() {
	flag.Parse()
	exps := []experiment{
		{"e1", "E1: ORP-KW d=2 (Theorem 1) — query exponent in N", e1},
		{"e1b", "E1b: ORP-KW d=2 — output sensitivity and baselines", e1b},
		{"e2", "E2: ORP-KW d=3 (Theorem 2) — dimension reduction", e2},
		{"e3", "E3: rectangles through LC-KW (Theorem 5 route)", e3},
		{"e4", "E4: RR-KW (Corollary 3) — temporal intervals d=1", e4},
		{"e5", "E5: L∞ NN-KW (Corollary 4) — exponent in t", e5},
		{"e6", "E6: LC-KW (Theorem 5) — halfplane conjunctions", e6},
		{"e6b", "E6b: crossing sensitivity — Willard vs grid substrate", e6b},
		{"e7", "E7: SRP-KW (Corollary 6) — lifted sphere queries", e7},
		{"e8", "E8: L2 NN-KW (Corollary 7) — integer grids", e8},
		{"e9", "E9: k-SI (Section 1.2) — the three additive terms", e9},
		{"f1", "F1: Figure 1 — crossing profile of a vertical line", f1},
		{"f2", "F2: Figure 2 — type-1/type-2 decomposition", f2},
		{"a1", "A1: ablation — kd route vs partition-tree route", a1},
		{"a2", "A2: ablation — framework vs Cohen–Porat 2-SI vs inverted index", a2},
		{"a3", "A3: ablation — d=1 word-parallel bitmaps vs the framework", a3},
		{"space", "SPACE: analytic space audits across all indexes", spaceAudit},
		{"planner", "PLANNER: cost-based routing across query regimes", plannerExp},
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*flagExp, ",") {
		want[strings.TrimSpace(id)] = true
	}
	ran := 0
	for _, e := range exps {
		if !want["all"] && !want[e.id] {
			continue
		}
		fmt.Printf("==== %s ====\n", e.title)
		e.run()
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q\n", *flagExp)
		os.Exit(2)
	}
	if *flagMetrics {
		fmt.Println("==== METRICS: registry after the run ====")
		if err := obs.Default().Snapshot().WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "metrics dump: %v\n", err)
			os.Exit(1)
		}
	}
}

func sizes(quickMax, fullMax int) []int {
	max := fullMax
	if *flagQuick {
		max = quickMax
	}
	var out []int
	for n := 1 << 12; n <= max; n <<= 1 {
		out = append(out, n)
	}
	return out
}

// meanQueryOps runs queries and returns the mean work units and mean OUT.
func meanQueryOps(run func(i int) (core.QueryStats, int)) (ops, out float64) {
	const reps = 9
	var so, sr float64
	for i := 0; i < reps; i++ {
		st, n := run(i)
		so += float64(st.Ops)
		sr += float64(n)
	}
	return so / reps, sr / reps
}

// ---------------------------------------------------------------------------

func e1() {
	for _, k := range []int{2, 3} {
		tb := newTable("N", "ops(OUT=0)", "nodes", "N^{1-1/k}", "ops/bound")
		var xs, ys []float64
		for _, n := range sizes(1<<15, 1<<17) {
			ds, kws, slab := workload.GenAdversarial(workload.Adversarial{
				Seed: *flagSeed, Objects: n, Dim: 2, K: k,
			})
			ix, err := core.BuildORPKW(ds, k)
			check(err)
			buf := make([]int32, 0, 256)
			ops, out := meanQueryOps(func(i int) (core.QueryStats, int) {
				ids, st, err := ix.CollectInto(slab, kws, core.QueryOpts{}, buf)
				check(err)
				buf = ids[:0]
				return st, len(ids)
			})
			if out != 0 {
				fmt.Printf("WARNING: adversarial slab should have OUT=0, got %.0f\n", out)
			}
			nn := float64(ds.N())
			bound := math.Pow(nn, 1-1/float64(k))
			xs = append(xs, nn)
			ys = append(ys, ops)
			tb.addRow(int(nn), ops, ix.Framework().NumNodes(), bound, ops/bound)
		}
		e, _, r2 := fitPowerLaw(xs, ys)
		fmt.Print(tb.String())
		fmt.Printf("k=%d: fitted ops ~ N^%.3f (R^2=%.3f); paper's upper bound is N^%.3f\n",
			k, e, r2, 1-1/float64(k))
		fmt.Printf("(worst-case-shaped input: sub-threshold posting lists + off-slab co-occurrences)\n\n")
	}
}

func e1b() {
	n := 1 << 16
	if *flagQuick {
		n = 1 << 14
	}
	tb := newTable("OUT", "index ops", "kw-only ops", "struct-only ops", "OUT^{1/2}")
	var xs, ys []float64
	for _, out := range []int{1, 4, 16, 64, 256, 1024, 4096} {
		ds, kws, region := workload.GenPlanted(workload.Planted{
			Seed: *flagSeed + int64(out), Objects: n, Dim: 2, K: 2, Out: out, Partial: n / 8,
		})
		ix, err := core.BuildORPKW(ds, 2)
		check(err)
		inv := invidx.Build(ds)
		so := core.BuildStructuredOnly(ds, nil)
		buf := make([]int32, 0, 4096)
		ops, _ := meanQueryOps(func(i int) (core.QueryStats, int) {
			ids, st, err := ix.CollectInto(region, kws, core.QueryOpts{}, buf)
			check(err)
			buf = ids[:0]
			return st, len(ids)
		})
		kwOps := float64(inv.ScanCost(kws))
		_, cand, sost := so.Query(region, kws)
		soOps := float64(sost.PtChecks) + float64(cand)
		xs = append(xs, float64(out))
		ys = append(ys, ops)
		tb.addRow(out, ops, kwOps, soOps, math.Sqrt(float64(out)))
	}
	e, _, r2 := fitPowerLaw(xs, ys)
	fmt.Print(tb.String())
	fmt.Printf("fitted index ops ~ OUT^%.3f (R^2=%.3f); paper predicts the output-\n", e, r2)
	fmt.Printf("sensitive term OUT^{1/k} = OUT^0.500 (plus the fixed N^{1-1/k} floor)\n")
}

func e2() {
	tb := newTable("N", "ops(OUT=0)", "space words", "N loglogN", "levels", "maxType2/level")
	var xs, ys []float64
	for _, n := range sizes(1<<13, 1<<14) {
		ds, kws, slab := workload.GenAdversarial(workload.Adversarial{
			Seed: *flagSeed, Objects: n, Dim: 3, K: 2,
		})
		ix, err := core.BuildORPKWHigh(ds, 2)
		check(err)
		ops, _ := meanQueryOps(func(i int) (core.QueryStats, int) {
			ids, st, err := ix.CollectInto(slab, kws, core.QueryOpts{}, nil)
			check(err)
			return st, len(ids)
		})
		// Max type-2 nodes per level over a few random rectangles.
		rng := rand.New(rand.NewSource(*flagSeed + 7))
		maxT2 := 0
		for q := 0; q < 10; q++ {
			prof, err := ix.Type2Profile(workload.RandRect(rng, 3, 0.5), kws)
			check(err)
			for _, c := range prof {
				if c > maxT2 {
					maxT2 = c
				}
			}
		}
		nn := float64(ds.N())
		xs = append(xs, nn)
		ys = append(ys, ops)
		tb.addRow(int(nn), ops, ix.Space().TotalWords(64),
			nn*math.Log2(math.Log2(nn)), ix.Levels(), maxT2)
	}
	e, _, r2 := fitPowerLaw(xs, ys)
	fmt.Print(tb.String())
	fmt.Printf("fitted ops ~ N^%.3f (R^2=%.3f); paper predicts N^0.500 at k=2,\n", e, r2)
	fmt.Printf("space O(N loglogN) at d=3, <=2 type-2 nodes per level (Figure 2)\n")
}

func e3() {
	tb := newTable("N", "ops(OUT=0)", "N^{1/2}")
	var xs, ys []float64
	for _, n := range sizes(1<<14, 1<<16) {
		ds, kws, slab := workload.GenAdversarial(workload.Adversarial{
			Seed: *flagSeed, Objects: n, Dim: 2, K: 2,
		})
		ix, err := core.BuildSPKW(ds, core.SPKWConfig{K: 2})
		check(err)
		hs := []geom.Halfspace{
			{Coef: []float64{1, 0}, Bound: slab.Hi[0]},
			{Coef: []float64{-1, 0}, Bound: -slab.Lo[0]},
		}
		ops, _ := meanQueryOps(func(i int) (core.QueryStats, int) {
			ids, st, err := ix.CollectInto(hs, kws, core.QueryOpts{}, nil)
			check(err)
			return st, len(ids)
		})
		nn := float64(ds.N())
		xs = append(xs, nn)
		ys = append(ys, ops)
		tb.addRow(int(nn), ops, math.Sqrt(nn))
	}
	e, _, r2 := fitPowerLaw(xs, ys)
	fmt.Print(tb.String())
	fmt.Printf("rectangle-as-4-constraints through the partition tree: fitted ops ~ N^%.3f\n", e)
	fmt.Printf("(R^2=%.3f); paper's Theorem 5 predicts N^{1-1/k} log N = N^0.5 logN shape\n", r2)
}

func e4() {
	tb := newTable("N", "ops", "OUT", "N^{1/2}")
	var xs, ys []float64
	rng := rand.New(rand.NewSource(*flagSeed))
	for _, n := range sizes(1<<14, 1<<16) {
		// Adversarial temporal intervals: sub-threshold posting lists per
		// query keyword, plus full matches whose lifespans avoid the query
		// window [0.47, 0.53].
		partial := int(0.9 * math.Pow(float64(3*n), 0.5))
		rects := make([]core.RectObject, n)
		for i := range rects {
			a := rng.Float64()
			span := rng.Float64() * 0.01
			doc := []dataset.Keyword{dataset.Keyword(2 + rng.Intn(62)), dataset.Keyword(64 + rng.Intn(64))}
			switch {
			case i < n/16: // full match away from the window
				if a >= 0.44 && a <= 0.56 {
					a = rng.Float64() * 0.4
				}
				doc = []dataset.Keyword{0, 1, dataset.Keyword(2 + rng.Intn(62))}
			case i < n/16+partial:
				doc[0] = 0
			case i < n/16+2*partial:
				doc[0] = 1
			}
			rects[i] = core.RectObject{
				Rect: &geom.Rect{Lo: []float64{a}, Hi: []float64{a + span}},
				Doc:  doc,
			}
		}
		ix, err := core.BuildRRKW(rects, 2)
		check(err)
		window := &geom.Rect{Lo: []float64{0.47}, Hi: []float64{0.52}}
		ops, out := meanQueryOps(func(i int) (core.QueryStats, int) {
			ids, st, err := ix.CollectInto(window, []dataset.Keyword{0, 1}, core.QueryOpts{}, nil)
			check(err)
			return st, len(ids)
		})
		nn := float64(ix.Dataset().N())
		xs = append(xs, nn)
		ys = append(ys, ops)
		tb.addRow(int(nn), ops, out, math.Sqrt(nn))
	}
	e, _, r2 := fitPowerLaw(xs, ys)
	fmt.Print(tb.String())
	fmt.Printf("temporal intervals (d=1, corner space d=2): fitted ops ~ N^%.3f (R^2=%.3f);\n", e, r2)
	fmt.Printf("paper predicts N^{1-1/k} = N^0.500 for OUT=0 (keywords never co-occur)\n")
}

func e5() {
	n := 1 << 15
	if *flagQuick {
		n = 1 << 13
	}
	ds := workload.Gen(workload.Config{Seed: *flagSeed, Objects: n, Dim: 2, Vocab: 64, DocLen: 5})
	ix, err := core.BuildLinfNN(ds, 2)
	check(err)
	tb := newTable("t", "inner ops", "probes", "t^{1/2}")
	var xs, ys []float64
	rng := rand.New(rand.NewSource(*flagSeed + 5))
	for _, t := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		var ops, probes float64
		const reps = 5
		for i := 0; i < reps; i++ {
			q := geom.Point{rng.Float64(), rng.Float64()}
			_, ns, err := ix.Query(q, t, []dataset.Keyword{1, 2}, core.QueryOpts{})
			check(err)
			ops += float64(ns.Ops)
			probes += float64(ns.Probes)
		}
		ops /= reps
		probes /= reps
		xs = append(xs, float64(t))
		ys = append(ys, ops)
		tb.addRow(t, ops, probes, math.Sqrt(float64(t)))
	}
	e, _, r2 := fitPowerLaw(xs, ys)
	fmt.Print(tb.String())
	fmt.Printf("fitted inner ops ~ t^%.3f (R^2=%.3f); paper predicts t^{1/k} = t^0.500\n", e, r2)
	fmt.Printf("with an O(log N) probe count (binary search over candidate radii)\n")
}

func e6() {
	for _, s := range []int{1, 2, 3} {
		tb := newTable("N", "ops(OUT=0)", "N^{0.7925}")
		var xs, ys []float64
		for _, n := range sizes(1<<14, 1<<15) {
			ds, kws, slab := workload.GenAdversarial(workload.Adversarial{
				Seed: *flagSeed, Objects: n, Dim: 2, K: 2,
			})
			ix, err := core.BuildSPKW(ds, core.SPKWConfig{K: 2})
			check(err)
			// The first two constraints pin the empty slab; extra fixed
			// constraints (identical across N so the sweep is comparable)
			// trim it further.
			hs := []geom.Halfspace{
				{Coef: []float64{1, 0}, Bound: slab.Hi[0]},
				{Coef: []float64{-1, 0}, Bound: -slab.Lo[0]},
			}
			extras := []geom.Halfspace{
				{Coef: []float64{0, 1}, Bound: 0.9},
				{Coef: []float64{1, 1}, Bound: 1.3},
			}
			hs = append(hs, extras[:s-1]...)
			ops, _ := meanQueryOps(func(i int) (core.QueryStats, int) {
				ids, st, err := ix.CollectInto(hs, kws, core.QueryOpts{}, nil)
				check(err)
				return st, len(ids)
			})
			nn := float64(ds.N())
			xs = append(xs, nn)
			ys = append(ys, ops)
			tb.addRow(int(nn), ops, math.Pow(nn, 0.7925))
		}
		e, _, r2 := fitPowerLaw(xs, ys)
		fmt.Print(tb.String())
		fmt.Printf("s=%d constraints: fitted ops ~ N^%.3f (R^2=%.3f); Willard substrate\n", s, e, r2)
		fmt.Printf("guarantees N^0.7925 worst case vs the paper's N^0.500 with Chan's tree\n\n")
	}
}

func e6b() {
	rng := rand.New(rand.NewSource(*flagSeed))
	for _, sub := range []struct {
		name  string
		split spart.Splitter
		want  string
	}{
		{"willard", &spart.Willard2D{}, "<= log4(3)=0.792 guaranteed; ~0.5 typical"},
		{"grid", &spart.Grid2D{G: 4}, "no worst-case guarantee (ablation)"},
	} {
		tb := newTable("n points", "crossing nodes (mean)", "sqrt(n)")
		var xs, ys []float64
		for _, n := range sizes(1<<14, 1<<16) {
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{rng.Float64(), rng.Float64()}
			}
			tree := spart.BuildTree(pts, nil, sub.split, 1)
			var total float64
			const reps = 9
			for q := 0; q < reps; q++ {
				hs := workload.RandHalfspaces(rng, 2, 1, 0.5)
				prof := tree.CrossingProfile(geom.NewPolyhedron(hs...))
				for _, c := range prof {
					total += float64(c)
				}
			}
			total /= reps
			xs = append(xs, float64(n))
			ys = append(ys, total)
			tb.addRow(n, total, math.Sqrt(float64(n)))
		}
		e, _, r2 := fitPowerLaw(xs, ys)
		fmt.Print(tb.String())
		fmt.Printf("%s: fitted crossing nodes ~ n^%.3f (R^2=%.3f); expected %s\n\n",
			sub.name, e, r2, sub.want)
	}
}

func e7() {
	tb := newTable("N", "ops(OUT=0)", "N^{2/3}", "ops/bound")
	var xs, ys []float64
	for _, n := range sizes(1<<13, 1<<15) {
		// Worst-case-shaped input; the query sphere fits inside the empty
		// slab so OUT = 0 while co-occurrences surround it.
		ds, kws, _ := workload.GenAdversarial(workload.Adversarial{
			Seed: *flagSeed, Objects: n, Dim: 2, K: 2,
		})
		ix, err := core.BuildSRPKW(ds, 2)
		check(err)
		sphere := geom.NewSphere(geom.Point{0.5, 0.5}, (workload.SlabHi-workload.SlabLo)/2-0.006)
		ops, out := meanQueryOps(func(i int) (core.QueryStats, int) {
			ids, st, err := ix.CollectInto(sphere, kws, core.QueryOpts{}, nil)
			check(err)
			return st, len(ids)
		})
		if out != 0 {
			fmt.Printf("WARNING: expected OUT=0, measured %.0f\n", out)
		}
		nn := float64(ds.N())
		bound := math.Pow(nn, 2.0/3)
		xs = append(xs, nn)
		ys = append(ys, ops)
		tb.addRow(int(nn), ops, bound, ops/bound)
	}
	e, _, r2 := fitPowerLaw(xs, ys)
	fmt.Print(tb.String())
	fmt.Printf("lifted to d+1=3 over the kd substrate: fitted ops ~ N^%.3f (R^2=%.3f);\n", e, r2)
	fmt.Printf("paper predicts N^{1-1/(d+1)} = N^0.667 for d > k-1 (here d=2, k=2)\n")
}

func e8() {
	n := 1 << 12
	if *flagQuick {
		n = 1 << 11
	}
	// Integer-grid dataset where half the objects match both query keywords,
	// so every t in the sweep is attainable.
	grng := rand.New(rand.NewSource(*flagSeed))
	objs := make([]dataset.Object, n)
	for i := range objs {
		doc := []dataset.Keyword{dataset.Keyword(3 + grng.Intn(61))}
		if i%2 == 0 {
			doc = append(doc, 1, 2)
		} else {
			doc = append(doc, dataset.Keyword(1+grng.Intn(2)))
		}
		objs[i] = dataset.Object{
			Point: geom.Point{float64(grng.Int63n(1 << 16)), float64(grng.Int63n(1 << 16))},
			Doc:   doc,
		}
	}
	ds := dataset.MustNew(objs)
	ix, err := core.BuildL2NN(ds, 2)
	check(err)
	tb := newTable("t", "inner ops", "probes", "t^{1/2}")
	var xs, ys []float64
	rng := rand.New(rand.NewSource(*flagSeed + 8))
	for _, t := range []int{1, 4, 16, 64, 256, 1024} {
		var ops, probes float64
		const reps = 5
		for i := 0; i < reps; i++ {
			q := geom.Point{float64(rng.Int63n(1 << 16)), float64(rng.Int63n(1 << 16))}
			_, ns, err := ix.Query(q, t, []dataset.Keyword{1, 2}, core.QueryOpts{})
			check(err)
			ops += float64(ns.Ops)
			probes += float64(ns.Probes)
		}
		ops /= reps
		probes /= reps
		xs = append(xs, float64(t))
		ys = append(ys, ops)
		tb.addRow(t, ops, probes, math.Sqrt(float64(t)))
	}
	// The bound is log N * (N^{1-1/(d+1)} + N^{1-1/k} t^{1/k}): subtract the
	// t-independent floor before fitting the t exponent.
	floor := ys[0]
	var mx, my []float64
	for i := range xs {
		if xs[i] >= 16 && ys[i] > floor {
			mx = append(mx, xs[i])
			my = append(my, ys[i]-floor)
		}
	}
	e, _, r2 := fitPowerLaw(mx, my)
	fmt.Print(tb.String())
	fmt.Printf("fitted marginal inner ops ~ t^%.3f (R^2=%.3f) above the t-independent\n", e, r2)
	fmt.Printf("floor; paper predicts t^{1/k} = t^0.500 with O(log N) probes\n")
}

func e9() {
	// Term 1: N^{1-1/k} at OUT=0 (already fit in e1). Here: the crossover
	// against the inverted-index baseline as OUT and posting sizes vary.
	n := 1 << 16
	if *flagQuick {
		n = 1 << 14
	}
	tb := newTable("posting |S_w|", "OUT", "index ops", "baseline ops", "winner")
	for _, part := range []int{n / 64, n / 16, n / 4} {
		for _, out := range []int{0, 64, part / 2} {
			ds, kws, _ := workload.GenPlanted(workload.Planted{
				Seed: *flagSeed + int64(part+out), Objects: n, Dim: 2, K: 2,
				Out: out, Partial: part,
			})
			ix, err := core.BuildKSIFromDataset(ds, 2)
			check(err)
			inv := invidx.Build(ds)
			ids, st, err := ix.Report(kws, core.QueryOpts{})
			check(err)
			if len(ids) != out {
				fmt.Printf("WARNING: OUT drifted: %d != %d\n", len(ids), out)
			}
			base := float64(inv.ScanCost(kws))
			winner := "index"
			if base < float64(st.Ops) {
				winner = "baseline"
			}
			tb.addRow(part+out, out, float64(st.Ops), base, winner)
		}
	}
	fmt.Print(tb.String())
	fmt.Printf("the index wins whenever OUT is small relative to the posting lists —\n")
	fmt.Printf("exactly the regime Section 1's naive-method critique describes\n")
}

func f1() {
	tb := newTable("N", "crossing cost (7)", "crossing nodes", "N^{1/2}")
	var xs, ys []float64
	for _, n := range sizes(1<<14, 1<<16) {
		ds := workload.Gen(workload.Config{Seed: *flagSeed, Objects: n, Dim: 2, Vocab: 16, DocLen: 4})
		ix, err := core.BuildORPKW(ds, 2)
		check(err)
		cost, err := ix.Framework().CrossingCost(workload.VerticalLine(ds), []dataset.Keyword{0, 1})
		check(err)
		// Also count raw crossing cells of the substrate.
		rng := rand.New(rand.NewSource(*flagSeed))
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{float64(i), rng.Float64()}
		}
		tree := spart.BuildTree(pts, nil, &spart.KD{Dim: 2}, 1)
		x := float64(n / 2)
		prof := tree.CrossingProfile(&geom.Rect{Lo: []float64{x, math.Inf(-1)}, Hi: []float64{x, math.Inf(1)}})
		cells := 0
		for _, c := range prof {
			cells += c
		}
		nn := float64(ds.N())
		xs = append(xs, nn)
		ys = append(ys, cost)
		tb.addRow(int(nn), cost, cells, math.Sqrt(nn))
	}
	e, _, r2 := fitPowerLaw(xs, ys)
	fmt.Print(tb.String())
	fmt.Printf("fitted crossing cost ~ N^%.3f (R^2=%.3f); Lemma 10 predicts O(N^{1-1/k})\n", e, r2)
	fmt.Printf("= N^0.500 at k=2 for any vertical line\n")
}

func f2() {
	n := 1 << 14
	if *flagQuick {
		n = 1 << 12
	}
	ds := workload.Gen(workload.Config{Seed: *flagSeed, Objects: n, Dim: 3, Vocab: 64, DocLen: 5})
	ix, err := core.BuildORPKWHigh(ds, 2)
	check(err)
	rng := rand.New(rand.NewSource(*flagSeed + 2))
	maxPerLevel := map[int]int{}
	for q := 0; q < 50; q++ {
		prof, err := ix.Type2Profile(workload.RandRect(rng, 3, 0.1+rng.Float64()*0.8), []dataset.Keyword{0, 1})
		check(err)
		for lvl, c := range prof {
			if c > maxPerLevel[lvl] {
				maxPerLevel[lvl] = c
			}
		}
	}
	tb := newTable("level", "max type-2 nodes (50 queries)", "paper bound")
	var levels []int
	for lvl := range maxPerLevel {
		levels = append(levels, lvl)
	}
	sort.Ints(levels)
	for _, lvl := range levels {
		tb.addRow(lvl, maxPerLevel[lvl], 2)
	}
	fmt.Print(tb.String())
	fmt.Printf("levels=%d (Proposition 1: O(loglog N)); max fanout=%d (Proposition 3:\n",
		ix.Levels(), ix.MaxFanout())
	fmt.Printf("O(N^{1-1/k}) = %.0f)\n", math.Sqrt(float64(ds.N())))
}

func a1() {
	n := 1 << 14
	if *flagQuick {
		n = 1 << 12
	}
	ds, kws, region := workload.GenPlanted(workload.Planted{
		Seed: *flagSeed, Objects: n, Dim: 2, K: 2, Out: 64, Partial: n / 8,
	})
	kd, err := core.BuildORPKW(ds, 2)
	check(err)
	pt, err := core.BuildSPKW(ds, core.SPKWConfig{K: 2})
	check(err)
	hs := region.Halfspaces()
	kdOps, _ := meanQueryOps(func(i int) (core.QueryStats, int) {
		ids, st, err := kd.CollectInto(region, kws, core.QueryOpts{}, nil)
		check(err)
		return st, len(ids)
	})
	ptOps, _ := meanQueryOps(func(i int) (core.QueryStats, int) {
		ids, st, err := pt.CollectInto(hs, kws, core.QueryOpts{}, nil)
		check(err)
		return st, len(ids)
	})
	tb := newTable("route", "query ops", "space words", "substrate")
	tb.addRow("Theorem 1 (kd)", kdOps, kd.Space().TotalWords(64), "rank-space kd-tree")
	tb.addRow("Theorem 5 (partition)", ptOps, pt.Space().TotalWords(64), "Willard ham-sandwich")
	fmt.Print(tb.String())
	fmt.Printf("both answer the same rectangle queries; the kd route is cheaper per\n")
	fmt.Printf("query (crossing exponent 0.5 vs 0.79), the partition route generalizes\n")
	fmt.Printf("to arbitrary linear constraints (Section 3.5's remark)\n")
}

func a2() {
	n := 1 << 15
	if *flagQuick {
		n = 1 << 13
	}
	tb := newTable("OUT/posting ratio", "framework ops", "twosi scans", "invidx ops")
	for _, ratio := range []float64{0, 0.01, 0.1, 0.5, 1} {
		part := n / 8
		out := int(ratio * float64(part))
		ds, kws, _ := workload.GenPlanted(workload.Planted{
			Seed: *flagSeed + int64(out), Objects: n, Dim: 2, K: 2, Out: out, Partial: part,
		})
		ix, err := core.BuildKSIFromDataset(ds, 2)
		check(err)
		cp := buildTwoSI(ds)
		inv := invidx.Build(ds)
		_, st, err := ix.Report(kws, core.QueryOpts{})
		check(err)
		_, cpSt, err := cp.report(kws[0], kws[1])
		check(err)
		base := float64(inv.ScanCost(kws))
		tb.addRow(ratio, float64(st.Ops), float64(cpSt.Scanned)+float64(cpSt.NodesVisited), base)
	}
	fmt.Print(tb.String())
	fmt.Printf("the framework matches its Cohen–Porat ancestor on pure 2-SI (both beat the\n")
	fmt.Printf("merge when OUT is small) while additionally supporting geometry predicates\n")
}

func a3() {
	n := 1 << 16
	if *flagQuick {
		n = 1 << 14
	}
	rng := rand.New(rand.NewSource(*flagSeed))
	tb := newTable("keyword density", "bitmap ops", "framework ops", "OUT")
	for _, density := range []float64{0.02, 0.1, 0.4} {
		objs := make([]dataset.Object, n)
		for i := range objs {
			doc := []dataset.Keyword{2 + dataset.Keyword(rng.Intn(62))}
			for w := dataset.Keyword(0); w < 2; w++ {
				if rng.Float64() < density {
					doc = append(doc, w)
				}
			}
			objs[i] = dataset.Object{Point: geom.Point{rng.Float64()}, Doc: doc}
		}
		ds, err := dataset.New(objs)
		check(err)
		bp, err := buildWordParallel1D(ds)
		check(err)
		fw, err := core.BuildORPKW(ds, 2)
		check(err)
		kws := []dataset.Keyword{0, 1}
		var bpOps, fwOps, outAvg float64
		const reps = 9
		for i := 0; i < reps; i++ {
			lo := rng.Float64() * 0.8
			hi := lo + 0.1
			_, bst, err := bp.collect(lo, hi, kws)
			check(err)
			ids, fst, err := fw.CollectInto(&geom.Rect{Lo: []float64{lo}, Hi: []float64{hi}}, kws, core.QueryOpts{}, nil)
			check(err)
			bpOps += float64(bst.WordOps + bst.ListOps)
			fwOps += float64(fst.Ops)
			outAvg += float64(len(ids))
		}
		tb.addRow(density, bpOps/reps, fwOps/reps, outAvg/reps)
	}
	fmt.Print(tb.String())
	fmt.Printf("dense keywords favor the word-parallel route (O(n k / w + OUT)); the\n")
	fmt.Printf("framework is output-insensitive and wins when lists are long but OUT small\n")
}

func spaceAudit() {
	n := 1 << 14
	if *flagQuick {
		n = 1 << 12
	}
	ds2 := workload.Gen(workload.Config{Seed: *flagSeed, Objects: n, Dim: 2, Vocab: 512, DocLen: 6})
	ds3 := workload.Gen(workload.Config{Seed: *flagSeed, Objects: n / 4, Dim: 3, Vocab: 512, DocLen: 6})
	grid := workload.Gen(workload.Config{Seed: *flagSeed, Objects: n / 4, Dim: 2, Vocab: 512, DocLen: 6, Points: "grid"})
	tb := newTable("index", "N", "total words", "words/N", "tensor bits", "pivot max")
	add := func(name string, nn int64, sp core.SpaceBreakdown, piv int) {
		tb.addRow(name, nn, sp.TotalWords(64), float64(sp.TotalWords(64))/float64(nn), sp.TensorBits, piv)
	}
	orp, err := core.BuildORPKW(ds2, 2)
	check(err)
	add("ORP-KW d=2 (Thm 1)", ds2.N(), orp.Space(), orp.Framework().MaxPivots())
	hi, err := core.BuildORPKWHigh(ds3, 2)
	check(err)
	add("ORP-KW d=3 (Thm 2)", ds3.N(), hi.Space(), 0)
	sp, err := core.BuildSPKW(ds2, core.SPKWConfig{K: 2})
	check(err)
	add("LC-KW d=2 (Thm 5)", ds2.N(), sp.Space(), sp.Framework().MaxPivots())
	srp, err := core.BuildSRPKW(ds2, 2)
	check(err)
	add("SRP-KW d=2 (Cor 6)", ds2.N(), srp.Space(), 0)
	l2, err := core.BuildL2NN(grid, 2)
	check(err)
	add("L2NN-KW (Cor 7)", grid.N(), l2.Space(), 0)
	fmt.Print(tb.String())
	fmt.Printf("all audits in words of the paper's RAM model; Table 1 predicts O(N) for\n")
	fmt.Printf("d=2 rows and O(N loglogN) for the d=3 dimension-reduction index\n")
}

func plannerExp() {
	n := 1 << 14
	if *flagQuick {
		n = 1 << 12
	}
	ds := workload.Gen(workload.Config{Seed: *flagSeed, Objects: n, Dim: 2, Vocab: 400, DocLen: 5, ZipfS: 1.6})
	p, err := buildPlanner(ds, 2)
	check(err)
	inv := invidx.Build(ds)
	tb := newTable("regime", "route chosen", "est cost", "actual results")
	cases := []struct {
		name string
		q    *geom.Rect
		ws   []dataset.Keyword
	}{
		{"rare keyword, big region", workload.RandRect(rand.New(rand.NewSource(1)), 2, 0.9),
			[]dataset.Keyword{0, rarestKeyword(inv, ds)},
		},
		{"frequent keywords, tiny region", geom.NewRect([]float64{0.5, 0.5}, []float64{0.503, 0.503}),
			[]dataset.Keyword{0, 1},
		},
		{"frequent keywords, big region", workload.RandRect(rand.New(rand.NewSource(2)), 2, 0.8),
			[]dataset.Keyword{0, 1},
		},
	}
	for _, c := range cases {
		got, pl, err := p.collect(c.q, c.ws)
		check(err)
		tb.addRow(c.name, string(pl.route), pl.estimates[pl.route], len(got))
		// Cross-check against the oracle.
		want := ds.Filter(c.q, c.ws)
		if len(want) != len(got) {
			fmt.Printf("WARNING: route %s disagreed with the oracle (%d vs %d)\n",
				pl.route, len(got), len(want))
		}
	}
	// The framework's regime: long, rarely co-occurring posting lists over a
	// selective region (the adversarial workload).
	adv, advKws, slab := workload.GenAdversarial(workload.Adversarial{Seed: *flagSeed, Objects: n, Dim: 2, K: 2})
	pAdv, err := buildPlanner(adv, 2)
	check(err)
	got, pl, err := pAdv.collect(slab, advKws)
	check(err)
	tb.addRow("long disjoint postings, slab", string(pl.route), pl.estimates[pl.route], len(got))
	fmt.Print(tb.String())
	fmt.Printf("the planner applies the paper's cost formulas per query: posting scans for\n")
	fmt.Printf("rare terms, geometric filters for tiny regions, the framework when postings\n")
	fmt.Printf("are long but the estimated intersection is small\n")
}

// rarestKeyword returns the least frequent present keyword above id 1.
func rarestKeyword(inv *invidx.Index, ds *dataset.Dataset) dataset.Keyword {
	best, bestDF := dataset.Keyword(2), 1<<30
	for w := 2; w < ds.W(); w++ {
		if df := inv.DocFrequency(dataset.Keyword(w)); df > 0 && df < bestDF {
			best, bestDF = dataset.Keyword(w), df
		}
	}
	return best
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchkw:", err)
		os.Exit(1)
	}
}
