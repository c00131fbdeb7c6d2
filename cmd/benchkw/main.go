// Command benchkw regenerates every experiment in DESIGN.md Section 5: one
// experiment per row of internal/table1 (Table 1 of Lu & Tao, PODS 2023, and
// its two figures), plus the ablations. Each row sweeps the variable its
// claim is stated in (N, OUT, t, k), measures the machine-independent query
// cost (work units: node visits + object examinations), fits a power law,
// and prints the fitted exponent next to the paper's predicted exponent.
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
	"math/rand"
	"os"
	"strings"

	"kwsc/internal/core"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/invidx"
	"kwsc/internal/obs"
	"kwsc/internal/table1"
	"kwsc/internal/workload"
)

var (
	flagExp     = flag.String("exp", "all", "comma-separated experiment ids ("+strings.Join(ids(), ",")+") or 'all'")
	flagQuick   = flag.Bool("quick", false, "smaller sweeps (CI-friendly)")
	flagSeed    = flag.Int64("seed", 1, "base RNG seed")
	flagMetrics = flag.Bool("metrics", false, "dump the metrics registry (Prometheus text format) after the run")
)

type experiment struct {
	id, title string
	run       func()
}

// experiments are the rows of Table 1, each swept by sweep, then the
// ablations, the space audits and the planner.
func experiments() []experiment {
	var exps []experiment
	for _, r := range table1.Rows {
		exps = append(exps, experiment{r.ID, r.Title, func() { sweep(r) }})
	}
	return append(exps,
		experiment{"a1", "A1: ablation — kd route vs partition-tree route", a1},
		experiment{"a2", "A2: ablation — framework vs Cohen–Porat 2-SI vs inverted index", a2},
		experiment{"a3", "A3: ablation — d=1 word-parallel bitmaps vs the framework", a3},
		experiment{"space", "SPACE: analytic space audits across all indexes", spaceAudit},
		experiment{"planner", "PLANNER: cost-based routing across query regimes", plannerExp},
	)
}

// ids lists the experiment ids in run order.
func ids() []string {
	var out []string
	for _, e := range experiments() {
		out = append(out, e.id)
	}
	return out
}

func main() {
	flag.Parse()
	want := map[string]bool{}
	for _, id := range strings.Split(*flagExp, ",") {
		want[strings.TrimSpace(id)] = true
	}
	ran := 0
	for _, e := range experiments() {
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

// sweep prints each case of a Table 1 row that runs at this scale: one
// table row per instance, then the fitted exponent of its cost.
func sweep(r table1.Row) {
	scale := table1.Full
	if *flagQuick {
		scale = table1.Quick
	}
	env := table1.Env{Seed: *flagSeed, Rng: rand.New(rand.NewSource(*flagSeed + r.Seed))}
	for _, c := range r.Cases {
		if len(c.Sizes[scale]) == 0 {
			continue
		}
		tb := newTable(c.Cols...)
		var xs, ys []float64
		var last table1.Inst
		for _, at := range c.Sizes[scale] {
			in, err := c.Gen(env, at)
			check(err)
			m, err := in.Run()
			check(err)
			for _, cells := range m.Cells {
				tb.addRow(cells...)
			}
			xs, ys, last = append(xs, in.X), append(ys, m.Ops), in
		}
		if c.Fit != nil {
			xs, ys = c.Fit(xs, ys)
		}
		e, _, r2 := fitPowerLaw(xs, ys)
		fmt.Print(tb.String())
		if c.Footer != "" {
			fmt.Printf(c.Footer, e, r2)
		}
		fmt.Print(last.Note)
	}
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
	_, kdSt, err := kd.CollectInto(region, kws, core.QueryOpts{}, nil)
	check(err)
	_, ptSt, err := pt.CollectInto(region.Halfspaces(), kws, core.QueryOpts{}, nil)
	check(err)
	tb := newTable("route", "query ops", "space words", "substrate")
	tb.addRow("Theorem 1 (kd)", float64(kdSt.Ops), kd.Space().TotalWords(64), "rank-space kd-tree")
	tb.addRow("Theorem 5 (partition)", float64(ptSt.Ops), pt.Space().TotalWords(64), "Willard ham-sandwich")
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
