// Package workload generates the synthetic datasets and queries the
// benchmark harness runs. The paper evaluates nothing empirically, so the
// goal of a workload here is control, not realism: every generator exposes
// the variables the theory predicts behavior in — N, k, OUT, t, keyword
// frequency, selectivity — so the harness can sweep one variable at a time
// and fit the exponents of Table 1.
package workload

import (
	"math"
	"math/rand"
	"slices"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

// Config describes a generic dataset.
type Config struct {
	Seed    int64
	Objects int // number of objects |D|
	Dim     int
	Vocab   int     // W: number of distinct keywords
	DocLen  int     // mean document length (doc sizes vary in [1, 2*DocLen))
	ZipfS   float64 // keyword skew; <= 1 means near-uniform (default 1.2)
	// Points selects the coordinate distribution: "uniform" (default) in
	// [0,1)^d, "cluster" (a mixture of Gaussians), or "grid" for integer
	// coordinates in [0, GridSide)^d (the L2NN-KW setting).
	Points   string
	GridSide int64
	Clusters int
}

func (c Config) normalize() Config {
	if c.Dim <= 0 {
		c.Dim = 2
	}
	if c.Vocab <= 0 {
		c.Vocab = 1000
	}
	if c.DocLen <= 0 {
		c.DocLen = 6
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.Points == "" {
		c.Points = "uniform"
	}
	if c.GridSide <= 0 {
		c.GridSide = 1 << 20
	}
	if c.Clusters <= 0 {
		c.Clusters = 8
	}
	return c
}

// Gen produces a dataset under the configuration.
func Gen(cfg Config) *dataset.Dataset {
	cfg = cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Vocab-1))
	objs := make([]dataset.Object, cfg.Objects)
	var centers []geom.Point
	if cfg.Points == "cluster" {
		centers = make([]geom.Point, cfg.Clusters)
		for i := range centers {
			centers[i] = randomPoint(rng, cfg.Dim)
		}
	}
	for i := range objs {
		objs[i] = dataset.Object{
			Point: genPoint(rng, cfg, centers),
			Doc:   genDoc(rng, zipf, cfg),
		}
	}
	return dataset.MustNew(objs)
}

func genPoint(rng *rand.Rand, cfg Config, centers []geom.Point) geom.Point {
	switch cfg.Points {
	case "grid":
		p := make(geom.Point, cfg.Dim)
		for j := range p {
			p[j] = float64(rng.Int63n(cfg.GridSide))
		}
		return p
	case "cluster":
		c := centers[rng.Intn(len(centers))]
		p := make(geom.Point, cfg.Dim)
		for j := range p {
			p[j] = c[j] + rng.NormFloat64()*0.03
		}
		return p
	default:
		return randomPoint(rng, cfg.Dim)
	}
}

func randomPoint(rng *rand.Rand, dim int) geom.Point {
	p := make(geom.Point, dim)
	for j := range p {
		p[j] = rng.Float64()
	}
	return p
}

func genDoc(rng *rand.Rand, zipf *rand.Zipf, cfg Config) []dataset.Keyword {
	l := 1 + rng.Intn(2*cfg.DocLen-1)
	doc := make([]dataset.Keyword, 0, l)
	for len(doc) < l {
		doc = append(doc, dataset.Keyword(zipf.Uint64()))
	}
	return doc
}

// Planted describes a dataset with controlled query-relevant structure: the
// first K vocabulary entries are the query keywords; exactly Out objects
// carry all K of them and lie inside Region; Partial objects per keyword
// carry that keyword alone (plus background fillers) anywhere in space.
// Querying (Region, keywords 0..K-1) therefore has output size exactly Out,
// while each posting list has size Out + Partial — the two knobs the
// tightness discussion of Section 1.2 separates.
type Planted struct {
	Seed    int64
	Objects int // total objects; must exceed Out + K*Partial
	Dim     int
	Vocab   int
	DocLen  int
	K       int        // number of query keywords (>= 2)
	Out     int        // objects matching all K keywords inside Region
	Partial int        // per-keyword objects matching exactly that keyword
	Region  *geom.Rect // nil means the unit cube scaled to [0.4, 0.6]^d
}

// GenPlanted produces the dataset and the query keyword tuple.
func GenPlanted(cfg Planted) (*dataset.Dataset, []dataset.Keyword, *geom.Rect) {
	if cfg.K < 2 {
		cfg.K = 2
	}
	if cfg.Dim <= 0 {
		cfg.Dim = 2
	}
	if cfg.Vocab <= cfg.K+1 {
		cfg.Vocab = cfg.K + 100
	}
	if cfg.DocLen <= 0 {
		cfg.DocLen = 6
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	region := cfg.Region
	if region == nil {
		lo := make([]float64, cfg.Dim)
		hi := make([]float64, cfg.Dim)
		for j := range lo {
			lo[j], hi[j] = 0.4, 0.6
		}
		region = &geom.Rect{Lo: lo, Hi: hi}
	}
	kws := make([]dataset.Keyword, cfg.K)
	for i := range kws {
		kws[i] = dataset.Keyword(i)
	}
	filler := func() dataset.Keyword {
		return dataset.Keyword(cfg.K + rng.Intn(cfg.Vocab-cfg.K))
	}
	fillDoc := func(base []dataset.Keyword) []dataset.Keyword {
		doc := append([]dataset.Keyword(nil), base...)
		for len(doc) < cfg.DocLen {
			doc = append(doc, filler())
		}
		return doc
	}
	inRegion := func() geom.Point {
		p := make(geom.Point, cfg.Dim)
		for j := range p {
			p[j] = region.Lo[j] + rng.Float64()*(region.Hi[j]-region.Lo[j])
		}
		return p
	}
	need := cfg.Out + cfg.K*cfg.Partial
	if cfg.Objects < need+1 {
		cfg.Objects = need + 1
	}
	objs := make([]dataset.Object, 0, cfg.Objects)
	for i := 0; i < cfg.Out; i++ {
		objs = append(objs, dataset.Object{Point: inRegion(), Doc: fillDoc(kws)})
	}
	for w := 0; w < cfg.K; w++ {
		for i := 0; i < cfg.Partial; i++ {
			objs = append(objs, dataset.Object{
				Point: randomPoint(rng, cfg.Dim),
				Doc:   fillDoc([]dataset.Keyword{dataset.Keyword(w)}),
			})
		}
	}
	for len(objs) < cfg.Objects {
		objs = append(objs, dataset.Object{
			Point: randomPoint(rng, cfg.Dim),
			Doc:   fillDoc(nil),
		})
	}
	rng.Shuffle(len(objs), func(a, b int) { objs[a], objs[b] = objs[b], objs[a] })
	return dataset.MustNew(objs), kws, region
}

// RandRect returns a random query rectangle of the given side length inside
// the unit cube.
func RandRect(rng *rand.Rand, dim int, side float64) *geom.Rect {
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for j := range lo {
		c := rng.Float64() * (1 - side)
		lo[j], hi[j] = c, c+side
	}
	return &geom.Rect{Lo: lo, Hi: hi}
}

// VerticalLine is the zero-width rectangle {x = m} of the plane that Lemma
// 10's crossing experiment (F1) sends through ds: m is the midpoint of the x
// coordinates a third of the way through their sorted order, so that with
// distinct coordinates no point lies on it. A kd tree cuts x at dyadic
// quantiles — the median, the quartiles, ... — and a tight box ends at its
// points, so a line through a cut's gap misses both children and is far
// kinder than the lemma's bound; a third is no dyadic fraction, so the line
// keeps crossing a node on every level that cuts y. ds needs three objects.
func VerticalLine(ds *dataset.Dataset) *geom.Rect {
	xs := make([]float64, ds.Len())
	for i := range xs {
		xs[i] = ds.Point(int32(i))[0]
	}
	slices.Sort(xs)
	i := len(xs) / 3
	m := xs[i-1]/2 + xs[i]/2
	return &geom.Rect{Lo: []float64{m, math.Inf(-1)}, Hi: []float64{m, math.Inf(1)}}
}

// RandKeywords picks k distinct keywords from the vocabulary, weighted
// toward the frequent (low-id) half so intersections are non-trivial.
func RandKeywords(rng *rand.Rand, vocab, k int) []dataset.Keyword {
	if vocab < k {
		panic("workload: vocabulary smaller than k")
	}
	window := 1 + vocab/4
	if window < k {
		window = vocab // narrow window cannot supply k distinct keywords
	}
	seen := make(map[dataset.Keyword]struct{}, k)
	out := make([]dataset.Keyword, 0, k)
	for len(out) < k {
		w := dataset.Keyword(rng.Intn(window))
		if _, dup := seen[w]; dup {
			continue
		}
		seen[w] = struct{}{}
		out = append(out, w)
	}
	return out
}

// RandHalfspaces returns s random linear constraints whose conjunction keeps
// roughly frac of the unit cube around its center.
func RandHalfspaces(rng *rand.Rand, dim, s int, frac float64) []geom.Halfspace {
	hs := make([]geom.Halfspace, s)
	for i := range hs {
		coef := make([]float64, dim)
		var norm float64
		for j := range coef {
			coef[j] = rng.NormFloat64()
			norm += coef[j] * coef[j]
		}
		norm = math.Sqrt(norm)
		var centerVal float64
		for j := range coef {
			coef[j] /= norm
			centerVal += coef[j] * 0.5
		}
		// Offset so the constraint boundary sits frac-deep past the center.
		hs[i] = geom.Halfspace{Coef: coef, Bound: centerVal + (frac-0.5)*0.5}
	}
	return hs
}

// Adversarial describes the worst-case-shaped workload the upper bounds of
// Table 1 are tight against. Three ingredients:
//
//   - per query keyword, a posting list sized just below the root's
//     large/small threshold N^{1-1/K}, so the query's small-keyword path
//     must scan Theta(N^{1-1/K}) materialized entries — the first additive
//     term of expression (4);
//   - objects carrying all K keywords ("full matches") spread everywhere
//     except a thin slab, so a slab query has OUT = 0 while the
//     non-emptiness tensors stay set along the whole search boundary — the
//     crossing-sensitivity term;
//   - uniform filler traffic.
type Adversarial struct {
	Seed    int64
	Objects int
	Dim     int
	K       int
	DocLen  int
}

// SlabLo and SlabHi bound the empty slab on dimension 0.
const (
	SlabLo = 0.47
	SlabHi = 0.53
)

// GenAdversarial produces the dataset, the query keywords, and the slab
// query rectangle (whose result is empty by construction).
func GenAdversarial(cfg Adversarial) (*dataset.Dataset, []dataset.Keyword, *geom.Rect) {
	if cfg.K < 2 {
		cfg.K = 2
	}
	if cfg.Dim <= 0 {
		cfg.Dim = 2
	}
	if cfg.DocLen < cfg.K {
		cfg.DocLen = cfg.K + 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	kws := make([]dataset.Keyword, cfg.K)
	for i := range kws {
		kws[i] = dataset.Keyword(i)
	}
	vocab := cfg.K + 256
	filler := func() dataset.Keyword {
		return dataset.Keyword(cfg.K + rng.Intn(vocab-cfg.K))
	}
	fillDoc := func(base []dataset.Keyword) []dataset.Keyword {
		doc := append([]dataset.Keyword(nil), base...)
		for len(doc) < cfg.DocLen {
			doc = append(doc, filler())
		}
		return doc
	}
	// Points avoiding / covering the slab on dimension 0.
	offSlab := func() geom.Point {
		p := make(geom.Point, cfg.Dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		if p[0] >= SlabLo && p[0] <= SlabHi {
			if rng.Intn(2) == 0 {
				p[0] = rng.Float64() * (SlabLo - 0.01)
			} else {
				p[0] = SlabHi + 0.01 + rng.Float64()*(1-SlabHi-0.01)
			}
		}
		return p
	}
	anywhere := func() geom.Point {
		p := make(geom.Point, cfg.Dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		return p
	}
	nEst := float64(cfg.Objects * cfg.DocLen)
	partial := int(0.9 * math.Pow(nEst, 1-1/float64(cfg.K)))
	pairs := cfg.Objects / 16
	objs := make([]dataset.Object, 0, cfg.Objects)
	for i := 0; i < pairs; i++ {
		objs = append(objs, dataset.Object{Point: offSlab(), Doc: fillDoc(kws)})
	}
	for w := 0; w < cfg.K; w++ {
		for i := 0; i < partial; i++ {
			objs = append(objs, dataset.Object{
				Point: anywhere(),
				Doc:   fillDoc([]dataset.Keyword{dataset.Keyword(w)}),
			})
		}
	}
	for len(objs) < cfg.Objects {
		objs = append(objs, dataset.Object{Point: anywhere(), Doc: fillDoc(nil)})
	}
	rng.Shuffle(len(objs), func(a, b int) { objs[a], objs[b] = objs[b], objs[a] })
	lo := make([]float64, cfg.Dim)
	hi := make([]float64, cfg.Dim)
	lo[0], hi[0] = SlabLo+0.005, SlabHi-0.005
	for j := 1; j < cfg.Dim; j++ {
		lo[j], hi[j] = math.Inf(-1), math.Inf(1)
	}
	return dataset.MustNew(objs), kws, &geom.Rect{Lo: lo, Hi: hi}
}
