package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/workload"
)

// checkTightBoxes demands that every node's box be the componentwise min and
// max of the coordinates of its rank interval, pivots included.
func checkTightBoxes(t *testing.T, what string, f *Framework) {
	t.Helper()
	d := f.pdim
	if len(f.boxes) != 2*d*f.NumNodes() {
		t.Fatalf("%s: %d box floats for %d nodes of dimension %d", what, len(f.boxes), f.NumNodes(), d)
	}
	for u := range f.nu {
		for j := 0; j < d; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for r := f.rankLo[u]; r < f.rankLo[u]+f.rankSpan[u]; r++ {
				c := f.rows.Point(r)[j]
				if c < lo {
					lo = c
				}
				if c > hi {
					hi = c
				}
			}
			if got := [2]float64{f.boxes[2*d*u+j], f.boxes[(2*u+1)*d+j]}; got != [2]float64{lo, hi} {
				t.Fatalf("%s: node %d box on axis %d is %v, its ranks span [%v, %v]", what, u, j, got, lo, hi)
			}
		}
	}
}

// degenerateRect draws a query rectangle whose bounds, axis by axis, are
// stored coordinates, their neighbours one float away (math.Nextafter),
// infinities, or a one-float interval next to a stored value — usually an
// axis that holds no point.
func degenerateRect(rng *rand.Rand, ds *dataset.Dataset) *geom.Rect {
	d := ds.Dim()
	q := &geom.Rect{Lo: make([]float64, d), Hi: make([]float64, d)}
	stored := func(j int) float64 { return ds.Point(int32(rng.Intn(ds.Len())))[j] }
	for j := 0; j < d; j++ {
		a, b := stored(j), stored(j)
		switch rng.Intn(6) {
		case 1:
			a, b = math.Nextafter(a, math.Inf(1)), math.Nextafter(b, math.Inf(-1))
		case 2:
			a = math.Inf(-1)
		case 3:
			b = math.Inf(1)
		case 4:
			a = math.Nextafter(a, math.Inf(1))
			b = a
		case 5:
			b = a
		}
		q.Lo[j], q.Hi[j] = min(a, b), max(a, b)
	}
	return q
}

// An ORP-KW tree splits in rank space and answers in the points' own
// coordinates: over every degenerate coordinate shape, in 1, 2 and 3
// dimensions, a static index, the same index after an image round trip
// (SaveFlat, then OpenFlat) and a dynamic index of several buckets each
// report exactly dataset.Filter's objects, every box is tight, and the
// opened boxes equal the built ones bit for bit.
func TestTightBoxesOriginalCoordinates(t *testing.T) {
	const n, vocab = 700, 8
	for ki, kind := range degenerateKinds {
		for dim := 1; dim <= 3; dim++ {
			ds := genDegenerate(kind, int64(100*ki+dim), n, dim, vocab)
			for _, k := range []int{2, 3} {
				name := fmt.Sprintf("%s/d=%d/k=%d", kind, dim, k)
				ix, err := BuildORPKW(ds, k, WithoutObs())
				if err != nil {
					t.Fatal(err)
				}
				for r, id := range ix.fw.ids {
					if !slices.Equal(ix.fw.rows.Point(int32(r)), ds.Point(id)) {
						t.Fatalf("%s: rank %d keeps %v, object %d is at %v", name, r, ix.fw.rows.Point(int32(r)), id, ds.Point(id))
					}
				}
				checkTightBoxes(t, name, ix.fw)
				opened := reopened(t, ix, FlatOptions{})
				fw := opened.fw
				for i, b := range ix.fw.boxes {
					if math.Float64bits(b) != math.Float64bits(fw.boxes[i]) {
						t.Fatalf("%s: box float %d is %v built, %v opened", name, i, b, fw.boxes[i])
					}
				}
				dyn, err := NewDynamicORPKW(dim, k, 32, WithoutObs())
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < ds.Len(); i++ {
					if h, err := dyn.Insert(*ds.Object(int32(i))); err != nil || h != int64(i) {
						t.Fatalf("%s: insert %d: handle %d, %v", name, i, h, err)
					}
				}
				if dyn.NumBuckets() < 2 {
					t.Fatalf("%s: the dynamic index has %d buckets, want several", name, dyn.NumBuckets())
				}
				rng := rand.New(rand.NewSource(int64(ki*10 + dim*3 + k)))
				for trial := 0; trial < 150; trial++ {
					q := degenerateRect(rng, ds)
					ws := workload.RandKeywords(rng, vocab, k)
					want := ds.Filter(q, ws)
					for _, c := range []struct {
						what string
						ix   *ORPKW
					}{{"static", ix}, {"opened", opened}} {
						got, _, err := c.ix.CollectInto(q, ws, QueryOpts{}, nil)
						if err != nil {
							t.Fatal(err)
						}
						slices.Sort(got)
						if !slices.Equal(got, want) {
							t.Fatalf("%s %s: %v %v: got %v, want %v", name, c.what, q, ws, got, want)
						}
					}
					hs, _, err := collectHandles(dyn, q, ws)
					if err != nil {
						t.Fatal(err)
					}
					slices.Sort(hs)
					if len(hs) != len(want) {
						t.Fatalf("%s dynamic: %v %v: got %v, want %v", name, q, ws, hs, want)
					}
					for i, h := range hs {
						if h != int64(want[i]) {
							t.Fatalf("%s dynamic: %v %v: got %v, want %v", name, q, ws, hs, want)
						}
					}
				}
			}
		}
	}
}

// Theorem 2's index takes rank space only to build: over every degenerate
// coordinate shape, in 3 and 4 dimensions, every d = 2 secondary keeps the
// final two coordinates of its objects' own points over tight boxes, and the
// index reports exactly dataset.Filter's objects — as does RR-KW at d = 2,
// whose corner queries carry ±Inf.
func TestDimRedOriginalCoordinates(t *testing.T) {
	const n, vocab = 500, 8
	for ki, kind := range degenerateKinds {
		for dim := 3; dim <= 4; dim++ {
			ds := genDegenerate(kind, int64(100*ki+dim), n, dim, vocab)
			for _, k := range []int{2, 3} {
				name := fmt.Sprintf("%s/d=%d/k=%d", kind, dim, k)
				ix, err := BuildORPKWHigh(ds, k, WithoutObs())
				if err != nil {
					t.Fatal(err)
				}
				var walk func(tr *drTree)
				walk = func(tr *drTree) {
					for _, nd := range tr.nodes {
						if nd.secDR != nil {
							walk(nd.secDR)
						}
						if f := nd.secKD; f != nil {
							for r, id := range f.ids {
								if !slices.Equal(f.rows.Point(int32(r)), ds.Point(id)[dim-2:]) {
									t.Fatalf("%s: a secondary's rank %d keeps %v, object %d is at %v", name, r, f.rows.Point(int32(r)), id, ds.Point(id))
								}
							}
							checkTightBoxes(t, name, f)
						}
					}
				}
				walk(ix.root)
				rng := rand.New(rand.NewSource(int64(ki*10 + dim*3 + k)))
				for trial := 0; trial < 100; trial++ {
					q := degenerateRect(rng, ds)
					ws := workload.RandKeywords(rng, vocab, k)
					got, _, err := ix.CollectInto(q, ws, QueryOpts{}, nil)
					if err != nil {
						t.Fatal(err)
					}
					slices.Sort(got)
					if want := ds.Filter(q, ws); !slices.Equal(got, want) {
						t.Fatalf("%s: %v %v: got %v, want %v", name, q, ws, got, want)
					}
				}
			}
		}
		// RR-KW over rectangles whose corners are two degenerate points.
		a, b := genDegenerate(kind, int64(100*ki+5), n, 2, vocab), genDegenerate(kind, int64(100*ki+6), n, 2, vocab)
		rects := make([]RectObject, n)
		for i := range rects {
			p, q := a.Point(int32(i)), b.Point(int32(i))
			rects[i] = RectObject{Rect: &geom.Rect{Lo: []float64{min(p[0], q[0]), min(p[1], q[1])}, Hi: []float64{max(p[0], q[0]), max(p[1], q[1])}}, Doc: a.Doc(int32(i))}
		}
		rr, err := BuildRRKW(rects, 2, WithoutObs())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(ki)))
		for trial := 0; trial < 100; trial++ {
			q := degenerateRect(rng, a)
			ws := workload.RandKeywords(rng, vocab, 2)
			got, _, err := rr.CollectInto(q, ws, QueryOpts{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(got)
			if want := rr.Dataset().Filter(rr.cornerQuery(q), ws); !slices.Equal(got, want) {
				t.Fatalf("%s RR-KW: %v %v: got %v, want %v", kind, q, ws, got, want)
			}
		}
	}
}

// degenerateKinds are the coordinate shapes genDegenerate makes, each a
// corner of float order a kd tree over ranks and boxes over the points' own
// coordinates must agree on.
var degenerateKinds = []string{"one-point", "ties", "infinite", "zeros", "subnormal", "duplicates"}

// genDegenerate makes n objects in dim dimensions, each with one to four
// keywords of [0, vocab), whose coordinates are, by kind: all one point;
// drawn from four values, so tie blocks straddle every median; drawn from
// ±Inf, ±1 and 0; drawn from −0, +0 and ±1; subnormal multiples of the
// smallest float and 0; or n/4 distinct points each held by four objects
// with documents of their own.
func genDegenerate(kind string, seed int64, n, dim, vocab int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	tiny := math.SmallestNonzeroFloat64
	values := map[string][]float64{
		"one-point": {2.5},
		"ties":      {-3, 0.5, 1, 7},
		"infinite":  {math.Inf(-1), -1, 0, 1, math.Inf(1)},
		"zeros":     {math.Copysign(0, -1), 0, -1, 1},
		"subnormal": {-3 * tiny, -tiny, 0, tiny, 2 * tiny, 5 * tiny},
	}[kind]
	distinct := make([]geom.Point, max(n/4, 1))
	for i := range distinct {
		distinct[i] = make(geom.Point, dim)
		for j := range distinct[i] {
			distinct[i][j] = rng.Float64()
		}
	}
	objs := make([]dataset.Object, n)
	for i := range objs {
		p := make(geom.Point, dim)
		for j := range p {
			if values != nil {
				p[j] = values[rng.Intn(len(values))]
			}
		}
		if kind == "duplicates" {
			copy(p, distinct[i%len(distinct)])
		}
		doc := make([]dataset.Keyword, 1+rng.Intn(4))
		for j := range doc {
			doc[j] = dataset.Keyword(rng.Intn(vocab))
		}
		objs[i] = dataset.Object{Point: p, Doc: doc}
	}
	return dataset.MustNew(objs)
}
