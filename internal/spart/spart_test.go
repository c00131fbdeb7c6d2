package spart

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

func randomPoints(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// rankify converts points to rank space per dimension (distinct integer
// coordinates), which is the input contract of the KD splitter.
func rankify(pts []geom.Point) []geom.Point {
	if len(pts) == 0 {
		return pts
	}
	d := len(pts[0])
	out := make([]geom.Point, len(pts))
	for i := range out {
		out[i] = make(geom.Point, d)
	}
	idx := make([]int, len(pts))
	for j := 0; j < d; j++ {
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			if pts[idx[a]][j] != pts[idx[b]][j] {
				return pts[idx[a]][j] < pts[idx[b]][j]
			}
			return idx[a] < idx[b]
		})
		for r, i := range idx {
			out[i][j] = float64(r)
		}
	}
	return out
}

func bruteQuery(pts []geom.Point, q geom.Region) []int32 {
	var out []int32
	for i, p := range pts {
		if q.ContainsPoint(p) {
			out = append(out, int32(i))
		}
	}
	return out
}

func checkSame(t *testing.T, got, want []int32, label string) {
	t.Helper()
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	if len(got) != len(want) {
		t.Fatalf("%s: got %d ids, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: id %d mismatch: got %d want %d", label, i, got[i], want[i])
		}
	}
}

func collect(tree *Tree, q geom.Region) ([]int32, QueryStats) {
	var out []int32
	st := tree.Query(q, func(id int32) { out = append(out, id) })
	return out, st
}

func TestKDTreeRectQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := rankify(randomPoints(rng, 600, 2))
	tree := BuildTree(pts, nil, &KD{Dim: 2}, 4)
	for trial := 0; trial < 60; trial++ {
		lo := []float64{float64(rng.Intn(500)), float64(rng.Intn(500))}
		hi := []float64{lo[0] + float64(rng.Intn(200)), lo[1] + float64(rng.Intn(200))}
		q := geom.NewRect(lo, hi)
		got, _ := collect(tree, q)
		checkSame(t, got, bruteQuery(pts, q), "kd-rect")
	}
}

func TestKDTreePivotConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := rankify(randomPoints(rng, 2000, 2))
	tree := BuildTree(pts, nil, &KD{Dim: 2}, 4)
	// In rank space the kd splitter puts exactly one object on each split
	// line (footnote 8's constant-size pivot sets).
	if m := tree.MaxPivots(); m > 1 {
		t.Fatalf("kd pivot set of size %d; rank space should cap it at 1", m)
	}
}

func TestKDTreeHeightLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := rankify(randomPoints(rng, 4096, 2))
	tree := BuildTree(pts, nil, &KD{Dim: 2}, 1)
	if h := tree.Height(); h > 2*13 {
		t.Fatalf("kd height %d too large for 4096 points", h)
	}
}

func TestKDCrossingSqrtN(t *testing.T) {
	// Theorem 1's substrate property: an axis-parallel line crosses
	// O(sqrt(N)) cells of a 2D kd-tree (Section 3.3).
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1024, 4096} {
		pts := rankify(randomPoints(rng, n, 2))
		tree := BuildTree(pts, nil, &KD{Dim: 2}, 1)
		x := float64(n / 2)
		line := geom.NewRect([]float64{x, math.Inf(-1)}, []float64{x, math.Inf(1)})
		profile := tree.CrossingProfile(line)
		total := 0
		for _, c := range profile {
			total += c
		}
		bound := 8 * int(math.Sqrt(float64(n)))
		if total > bound {
			t.Fatalf("n=%d: vertical line crosses %d cells, want <= %d", n, total, bound)
		}
	}
}

func TestWillardTreeHalfplaneQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 600, 2)
	tree := BuildTree(pts, nil, &Willard2D{}, 4)
	for trial := 0; trial < 60; trial++ {
		ph := geom.NewPolyhedron(geom.Halfspace{
			Coef:  []float64{rng.NormFloat64(), rng.NormFloat64()},
			Bound: rng.NormFloat64() * 0.5,
		})
		got, _ := collect(tree, ph)
		checkSame(t, got, bruteQuery(pts, ph), "willard-halfplane")
	}
}

func TestWillardTreeTriangleQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randomPoints(rng, 500, 2)
	tree := BuildTree(pts, nil, &Willard2D{}, 4)
	for trial := 0; trial < 40; trial++ {
		v := []geom.Point{
			{rng.Float64() * 1.4, rng.Float64() * 1.4},
			{rng.Float64() * 1.4, rng.Float64() * 1.4},
			{rng.Float64() * 1.4, rng.Float64() * 1.4},
		}
		area := (v[1][0]-v[0][0])*(v[2][1]-v[0][1]) - (v[1][1]-v[0][1])*(v[2][0]-v[0][0])
		if math.Abs(area) < 0.05 {
			continue
		}
		ph, err := geom.NewSimplex(v...).Polyhedron()
		if err != nil {
			continue
		}
		got, _ := collect(tree, ph)
		checkSame(t, got, bruteQuery(pts, ph), "willard-triangle")
	}
}

func TestWillardBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randomPoints(rng, 4096, 2)
	tree := BuildTree(pts, nil, &Willard2D{}, 8)
	// Height of a 4-way weight-balanced tree on 4096 points: log base
	// (1/0.45) of 4096 is ~10.4; allow generous slack.
	if h := tree.Height(); h > 16 {
		t.Fatalf("willard height %d too large", h)
	}
	if m := tree.MaxPivots(); m > 16 {
		t.Fatalf("willard pivot set of size %d exceeds the configured cap", m)
	}
}

func TestWillardDegenerateInputs(t *testing.T) {
	// All points identical: must become a single leaf, not recurse forever.
	pts := make([]geom.Point, 50)
	for i := range pts {
		pts[i] = geom.Point{0.5, 0.5}
	}
	tree := BuildTree(pts, nil, &Willard2D{}, 4)
	q := geom.NewPolyhedron(geom.Halfspace{Coef: []float64{1, 0}, Bound: 1})
	got, _ := collect(tree, q)
	if len(got) != 50 {
		t.Fatalf("identical-point query returned %d of 50", len(got))
	}
	// All points collinear (same x): ham-sandwich degenerates; fallback
	// must still terminate and answer correctly.
	for i := range pts {
		pts[i] = geom.Point{0.25, float64(i)}
	}
	tree = BuildTree(pts, nil, &Willard2D{}, 4)
	half := geom.NewPolyhedron(geom.Halfspace{Coef: []float64{0, 1}, Bound: 24.5})
	got, _ = collect(tree, half)
	checkSame(t, got, bruteQuery(pts, half), "willard-collinear")
}

func TestKDTreeQueries3D(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randomPoints(rng, 500, 3)
	tree := BuildTree(pts, nil, &KD{Dim: 3}, 4)
	for trial := 0; trial < 40; trial++ {
		ph := geom.NewPolyhedron(geom.Halfspace{
			Coef:  []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
			Bound: rng.NormFloat64() * 0.5,
		})
		got, _ := collect(tree, ph)
		checkSame(t, got, bruteQuery(pts, ph), "kd-halfspace")
	}
}

func TestKDTreeIntegerTies(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([]geom.Point, 400)
	for i := range pts {
		pts[i] = geom.Point{float64(rng.Intn(10)), float64(rng.Intn(10)), float64(rng.Intn(10))}
	}
	tree := BuildTree(pts, nil, &KD{Dim: 3}, 4)
	if m := tree.MaxPivots(); m > 1 {
		t.Fatalf("kd pivot set of size %d on tied coordinates", m)
	}
	for trial := 0; trial < 30; trial++ {
		q := &geom.Rect{
			Lo: []float64{float64(rng.Intn(8)), float64(rng.Intn(8)), float64(rng.Intn(8))},
			Hi: []float64{float64(2 + rng.Intn(8)), float64(2 + rng.Intn(8)), float64(2 + rng.Intn(8))},
		}
		if q.Lo[0] > q.Hi[0] || q.Lo[1] > q.Hi[1] || q.Lo[2] > q.Hi[2] {
			continue
		}
		got, _ := collect(tree, q)
		checkSame(t, got, bruteQuery(pts, q), "kd-ties")
	}
}

func TestKDTreeAllIdentical(t *testing.T) {
	pts := make([]geom.Point, 30)
	for i := range pts {
		pts[i] = geom.Point{1, 2, 3}
	}
	tree := BuildTree(pts, nil, &KD{Dim: 3}, 4)
	got, _ := collect(tree, geom.UniverseRect(3))
	if len(got) != 30 {
		t.Fatalf("identical points: got %d of 30", len(got))
	}
}

// TestKDSplitInfinities: a split next to infinite coordinates cuts between
// distinct values and bounds its cells by them, never by a NaN.
func TestKDSplitInfinities(t *testing.T) {
	inf := math.Inf(1)
	for _, xs := range [][]float64{{-inf, -inf, 5, 6}, {5, 6, inf, inf}, {-inf, -inf, inf, inf}, {-inf, -inf, -inf, 0}} {
		pts := make([]geom.Point, len(xs))
		objs := make([]int32, len(xs))
		for i, x := range xs {
			pts[i], objs[i] = geom.Point{x}, int32(i)
		}
		split := &KD{Dim: 1}
		cells, assign, ok := split.Split(split.RootCell(pts, objs), objs, pts, nil, 0)
		if !ok {
			t.Fatalf("%v: no split", xs)
		}
		var size [2]int
		for i, a := range assign {
			if a == PivotChild {
				if xs[i] != 6 { // the one median no other object shares
					t.Fatalf("%v: object %d is a pivot", xs, i)
				}
				continue
			}
			size[a]++
			if !cells[a].(*geom.Rect).ContainsPoint(pts[i]) {
				t.Fatalf("%v: child %d cell %v misses %v", xs, a, cells[a], pts[i])
			}
		}
		if size[0] == 0 || size[1] == 0 {
			t.Fatalf("%v: children of %d and %d objects", xs, size[0], size[1])
		}
		for _, c := range cells {
			if r := c.(*geom.Rect); math.IsNaN(r.Lo[0]) || math.IsNaN(r.Hi[0]) {
				t.Fatalf("%v: NaN bound in cell %v", xs, r)
			}
		}
		tree := BuildTree(pts, nil, split, 1)
		got, _ := collect(tree, geom.NewRect([]float64{-inf}, []float64{-inf}))
		checkSame(t, got, bruteQuery(pts, geom.NewRect([]float64{-inf}, []float64{-inf})), "kd-inf")
	}
}

// TestKDAtMostOnePivot: every kd split has at most one pivot, whatever the
// input — distinct ranks, coordinates drawn from a few values, a 16x16 grid,
// one point repeated, infinities, skewed weights — and every cell holds its
// subtree's points.
func TestKDAtMostOnePivot(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	inf := math.Inf(1)
	for name, coord := range map[string]func(i, j int) float64{
		"ranks":    func(i, j int) float64 { return float64((i*7919 + j*104729) % 1000) },
		"few":      func(i, j int) float64 { return float64(rng.Intn(3)) },
		"grid16":   func(i, j int) float64 { return float64(rng.Intn(16)) },
		"one":      func(i, j int) float64 { return 0.5 },
		"infinite": func(i, j int) float64 { return []float64{-inf, -1, 0, 1, inf}[rng.Intn(5)] },
	} {
		for dim := 1; dim <= 3; dim++ {
			pts := make([]geom.Point, 1000)
			w := make([]int32, len(pts))
			for i := range pts {
				pts[i] = make(geom.Point, dim)
				for j := range pts[i] {
					pts[i][j] = coord(i, j)
				}
				w[i] = int32(1 + rng.Intn(2)*rng.Intn(40))
			}
			for _, weight := range [][]int32{nil, w} {
				tree := BuildTree(pts, weight, &KD{Dim: dim}, 1)
				if m := tree.MaxPivots(); m > 1 {
					t.Fatalf("%s d=%d: a split with %d pivots", name, dim, m)
				}
				for i := range tree.nodes {
					for _, id := range subtreeIDs(tree, int32(i)) {
						if !tree.nodes[i].cell.(*geom.Rect).ContainsPoint(pts[id]) {
							t.Fatalf("%s d=%d: node %d cell misses point %d", name, dim, i, id)
						}
					}
				}
			}
		}
	}
}

func TestGridTreeQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := randomPoints(rng, 600, 2)
	tree := BuildTree(pts, nil, &Grid2D{G: 4}, 8)
	for trial := 0; trial < 40; trial++ {
		ph := geom.NewPolyhedron(geom.Halfspace{
			Coef:  []float64{rng.NormFloat64(), rng.NormFloat64()},
			Bound: rng.NormFloat64() * 0.5,
		})
		got, _ := collect(tree, ph)
		checkSame(t, got, bruteQuery(pts, ph), "grid-halfplane")
	}
}

func TestGridGrainClamping(t *testing.T) {
	if (&Grid2D{}).Fanout() != 16 {
		t.Fatal("default grain should be 4 (fanout 16)")
	}
	if (&Grid2D{G: 100}).Fanout() != 121 {
		t.Fatal("grain must clamp to 11")
	}
	if (&Grid2D{G: 3}).Fanout() != 9 {
		t.Fatal("explicit grain ignored")
	}
}

func TestWeightedSplitBalance(t *testing.T) {
	// One object carries half the total weight; the kd splitter must not
	// put it plus everything else on one side.
	rng := rand.New(rand.NewSource(11))
	pts := rankify(randomPoints(rng, 257, 2))
	w := make([]int32, len(pts))
	for i := range w {
		w[i] = 1
	}
	w[100] = 256
	tree := BuildTree(pts, w, &KD{Dim: 2}, 1)
	if tree.Len() < 10 {
		t.Fatalf("weighted tree degenerate: %d nodes", tree.Len())
	}
	got, _ := collect(tree, geom.UniverseRect(2))
	if len(got) != len(pts) {
		t.Fatalf("weighted tree lost objects: %d of %d", len(got), len(pts))
	}
}

func TestTreeQueryStats(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := rankify(randomPoints(rng, 300, 2))
	tree := BuildTree(pts, nil, &KD{Dim: 2}, 4)
	_, st := collect(tree, geom.UniverseRect(2))
	if st.Visited == 0 || st.Covered == 0 {
		t.Fatalf("universe query stats empty: %+v", st)
	}
	if st.Covered+st.Crossing != st.Visited {
		t.Fatalf("covered+crossing != visited: %+v", st)
	}
	// A query disjoint from all points walks at most one root-to-leaf spine
	// (the unbounded outer cells), never the whole tree.
	var none []int32
	st = tree.Query(geom.NewRect([]float64{-10, -10}, []float64{-5, -5}), func(id int32) { none = append(none, id) })
	if len(none) != 0 {
		t.Fatalf("disjoint query reported %d points", len(none))
	}
	if st.Visited > tree.Height()+2 {
		t.Fatalf("disjoint query visited %d nodes (height %d)", st.Visited, tree.Height())
	}
}

func TestEmptyTree(t *testing.T) {
	tree := BuildTree(nil, nil, &KD{Dim: 2}, 4)
	got, st := collect(tree, geom.UniverseRect(2))
	if len(got) != 0 || st.Visited != 0 {
		t.Fatal("empty tree must answer empty")
	}
	if tree.Height() != -1 {
		t.Fatal("empty tree height must be -1")
	}
}

// Cells must cover the points assigned to their subtrees: verified by
// querying each leaf's own cell region and checking every subtree point is
// reported. Exercised indirectly: a query equal to any cell returns at
// least the points inside it.
func TestCellCoverageInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, split := range []Splitter{&KD{Dim: 2}, &Willard2D{}, &Grid2D{G: 3}} {
		var pts []geom.Point
		if _, isKD := split.(*KD); isKD {
			pts = rankify(randomPoints(rng, 300, 2))
		} else {
			pts = randomPoints(rng, 300, 2)
		}
		tree := BuildTree(pts, nil, split, 4)
		for i := range tree.nodes {
			n := &tree.nodes[i]
			sub := subtreeIDs(tree, int32(i))
			for _, id := range sub {
				if !cellContains(split, n.cell, pts[id]) {
					t.Fatalf("%T: node %d cell misses point %d", split, i, id)
				}
			}
		}
	}
}

func subtreeIDs(t *Tree, n int32) []int32 {
	out := append([]int32(nil), t.nodes[n].pivots...)
	for _, c := range t.nodes[n].children {
		out = append(out, subtreeIDs(t, c)...)
	}
	return out
}

func cellContains(s Splitter, c Cell, p geom.Point) bool {
	switch cell := c.(type) {
	case *geom.Rect:
		return cell.ContainsPoint(p)
	case *geom.Polygon:
		return cell.ContainsPoint(p)
	default:
		return false
	}
}

// TestQuadTreeQueries runs the four-cell split, Grid2D with G = 2 (two
// slabs, each cut into two rows), against half-plane and rectangle queries.
func TestQuadTreeQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pts := randomPoints(rng, 600, 2)
	tree := BuildTree(pts, nil, &Grid2D{G: 2}, 4)
	for trial := 0; trial < 40; trial++ {
		ph := geom.NewPolyhedron(geom.Halfspace{
			Coef:  []float64{rng.NormFloat64(), rng.NormFloat64()},
			Bound: rng.NormFloat64() * 0.5,
		})
		got, _ := collect(tree, ph)
		checkSame(t, got, bruteQuery(pts, ph), "quad-halfplane")
	}
	for trial := 0; trial < 40; trial++ {
		q := geom.NewRect(
			[]float64{rng.Float64() * 0.5, rng.Float64() * 0.5},
			[]float64{0.5 + rng.Float64()*0.5, 0.5 + rng.Float64()*0.5},
		)
		got, _ := collect(tree, q)
		checkSame(t, got, bruteQuery(pts, q), "quad-rect")
	}
}

func TestGridTreeDegenerate(t *testing.T) {
	// Identical points: leaf, no infinite recursion.
	pts := make([]geom.Point, 40)
	for i := range pts {
		pts[i] = geom.Point{0.3, 0.7}
	}
	tree := BuildTree(pts, nil, &Grid2D{G: 2}, 4)
	got, _ := collect(tree, geom.UniverseRect(2))
	if len(got) != 40 {
		t.Fatalf("identical points: got %d of 40", len(got))
	}
	// Collinear points along x: y axis constant.
	for i := range pts {
		pts[i] = geom.Point{float64(i), 0.5}
	}
	tree = BuildTree(pts, nil, &Grid2D{G: 2}, 4)
	q := geom.NewRect([]float64{10, 0}, []float64{20, 1})
	got, _ = collect(tree, q)
	checkSame(t, got, bruteQuery(pts, q), "grid-collinear")
}

func TestGridTreeProgress(t *testing.T) {
	// Diagonal points: every slab boundary is also a row boundary.
	pts := make([]geom.Point, 512)
	for i := range pts {
		pts[i] = geom.Point{float64(i), float64(i)}
	}
	tree := BuildTree(pts, nil, &Grid2D{G: 2}, 1)
	if h := tree.Height(); h > 64 {
		t.Fatalf("diagonal grid tree height %d; split not making progress", h)
	}
	got, _ := collect(tree, geom.NewRect([]float64{100, 100}, []float64{200, 200}))
	if len(got) != 101 {
		t.Fatalf("diagonal range: got %d, want 101", len(got))
	}
}

// The Willard splitter's structural contract: each of the four classes holds
// at most 45% of the node's weight (the balance the crossing analysis needs).
func TestWillardSplitBalanceInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pts := randomPoints(rng, 2000, 2)
	w := make([]int32, len(pts))
	for i := range w {
		w[i] = int32(1 + rng.Intn(9)) // non-uniform weights
	}
	split := &Willard2D{}
	objs := make([]int32, len(pts))
	var total int64
	for i := range objs {
		objs[i] = int32(i)
		total += int64(w[i])
	}
	cells, assign, ok := split.Split(split.RootCell(pts, objs), objs, pts, w, 0)
	if !ok {
		t.Fatal("root split failed")
	}
	if len(cells) != 4 {
		t.Fatalf("expected 4 cells, got %d", len(cells))
	}
	var classW [4]int64
	var pivots int
	for i, a := range assign {
		if a == PivotChild {
			pivots++
			continue
		}
		classW[a] += int64(w[objs[i]])
	}
	for c, cw := range classW {
		if float64(cw) > 0.45*float64(total) {
			t.Fatalf("class %d holds %.1f%% of the weight", c, 100*float64(cw)/float64(total))
		}
	}
	if pivots > 16 {
		t.Fatalf("%d pivots exceed the cap", pivots)
	}
}

// TestPresortedPartitionMatchesSort holds Presort and Partition to their
// definition: after any sequence of splits, each node's list on axis a is its
// pivots in the split axis's order, then its left and its right objects, each
// sorted on a by dataset.RankKey, ties by id.
func TestPresortedPartitionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for dim := 1; dim <= 3; dim++ {
		const n = 300
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{float64(rng.Intn(20)), math.Copysign(0, float64(1-2*rng.Intn(2))), math.Inf(1 - 2*rng.Intn(2))}[:dim]
			if rng.Intn(4) == 0 {
				pts[i][0] = 0
			}
		}
		col := make([]float64, 0, n*dim)
		for _, pt := range pts {
			col = append(col, pt...)
		}
		p := Presort(n, dim, col, nil)
		sorted := func(a int, ids []int32) []int32 {
			s := slices.Clone(ids)
			slices.SortFunc(s, func(x, y int32) int {
				return cmp.Or(cmp.Compare(dataset.RankKey(pts[x][a]), dataset.RankKey(pts[y][a])), cmp.Compare(x, y))
			})
			return s
		}
		var check func(lo, hi int)
		check = func(lo, hi int) {
			for a := 0; a < dim; a++ {
				if got := p.List(a, lo, hi); !slices.Equal(got, sorted(a, got)) {
					t.Fatalf("d=%d [%d, %d): axis %d list %v is not sorted", dim, lo, hi, a, got)
				}
			}
			if hi-lo < 2 {
				return
			}
			axis := rng.Intn(dim)
			s := slices.Clone(p.List(axis, lo, hi))
			from := rng.Intn(len(s) + 1)
			to := min(from+rng.Intn(2), len(s))
			p.Partition(axis, lo, hi, from, to)
			npiv := to - from
			for a := 0; a < dim; a++ {
				l := p.List(a, lo, hi)
				if !slices.Equal(l[:npiv], s[from:to]) ||
					!slices.Equal(l[npiv:npiv+from], sorted(a, s[:from])) ||
					!slices.Equal(l[npiv+from:], sorted(a, s[to:])) {
					t.Fatalf("d=%d [%d, %d) cut at [%d, %d) of axis %d: axis %d lists %v", dim, lo, hi, from, to, axis, a, l)
				}
			}
			check(lo+npiv, lo+npiv+from)
			check(lo+npiv+from, hi)
		}
		check(0, n)
	}
}

// TestSplitRankedMatchesRankSpace: over raw coordinates with tie blocks,
// both zeros and both infinities, SplitRanked splits every node as SplitSorted
// splits it over the dataset.RankSpace ranks of the same points, with
// weights, and Partition keeps the two builds' lists equal all the way down —
// the kd tree of a rank-space build needs no rank space of its own. It runs the
// axes on goroutines of their own, as a parallel build does.
func TestSplitRankedMatchesRankSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	each := func(tasks int, task func(a int)) {
		done := make(chan struct{})
		for a := range tasks {
			go func() { task(a); done <- struct{}{} }()
		}
		for range tasks {
			<-done
		}
	}
	for dim := 1; dim <= 3; dim++ {
		const n = 300
		objs := make([]dataset.Object, n)
		weight := make([]int32, n)
		for i := range objs {
			objs[i] = dataset.Object{
				Point: geom.Point{float64(rng.Intn(20)), math.Copysign(0, float64(1-2*rng.Intn(2))), math.Inf(1 - 2*rng.Intn(2))}[:dim],
				Doc:   []dataset.Keyword{1},
			}
			weight[i] = int32(1 + rng.Intn(5))
		}
		ds := dataset.MustNew(objs)
		rs := dataset.NewRankSpace(ds)
		raw, ranks := make([]float64, 0, n*dim), make([]float64, 0, n*dim)
		for i := range int32(n) {
			raw = append(raw, ds.Point(i)...)
			for a := range dim {
				ranks = append(ranks, float64(rs.Rank(i, a)))
			}
		}
		kd := &KD{Dim: dim}
		got, want := Presort(n, dim, raw, each), Presort(n, dim, ranks, nil)
		var check func(lo, hi int, depth int)
		check = func(lo, hi int, depth int) {
			for a := 0; a < dim; a++ {
				if !slices.Equal(got.List(a, lo, hi), want.List(a, lo, hi)) {
					t.Fatalf("d=%d [%d, %d) axis %d: raw %v, ranks %v", dim, lo, hi, a, got.List(a, lo, hi), want.List(a, lo, hi))
				}
			}
			if hi-lo < 2 {
				return
			}
			var total int64
			for _, id := range got.List(0, lo, hi) {
				total += int64(weight[id])
			}
			axis, from, to, left, ok := kd.SplitSorted(want, lo, hi, weight, total, depth)
			gAxis, at, gLeft := kd.SplitRanked(got, lo, hi, weight, total, depth)
			if !ok || to != from+1 || axis != gAxis || at != from || left != gLeft {
				t.Fatalf("d=%d [%d, %d) depth %d: ranks split (%d, [%d, %d), %d, %v), raw (%d, %d, %d)", dim, lo, hi, depth, axis, from, to, left, ok, gAxis, at, gLeft)
			}
			got.Partition(axis, lo, hi, from, to)
			want.Partition(axis, lo, hi, from, to)
			check(lo+1, lo+1+from, depth+1)
			check(lo+1+from, hi, depth+1)
		}
		check(0, n, 0)
	}
}

// TestPartitionSiblingsConcurrently partitions the two children of every
// split on two goroutines, all the way down, and holds every axis's list to a
// one-goroutine run of the same splits: siblings share the rank column and
// write only their own positions. It runs rank-space splits (SplitRanked) and
// tie-block cuts (SplitSorted) over coordinates tied at ±0, ±Inf and small
// integers; under the race detector (make race) it also checks that sibling
// partitions share no written memory.
func TestPartitionSiblingsConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for dim := 1; dim <= 3; dim++ {
		const n = 1000
		col := make([]float64, n*dim)
		for i := range col {
			switch rng.Intn(4) {
			case 0:
				col[i] = math.Copysign(0, float64(1-2*rng.Intn(2)))
			case 1:
				col[i] = math.Inf(1 - 2*rng.Intn(2))
			default:
				col[i] = float64(rng.Intn(20))
			}
		}
		weight := make([]int32, n)
		for i := range weight {
			weight[i] = int32(1 + rng.Intn(5))
		}
		kd := &KD{Dim: dim}
		for _, ranked := range []bool{true, false} {
			var walk func(p *Presorted, lo, hi, depth int, wide bool)
			walk = func(p *Presorted, lo, hi, depth int, wide bool) {
				if hi-lo < 2 {
					return
				}
				var total int64
				for _, id := range p.List(0, lo, hi) {
					total += int64(weight[id])
				}
				axis, from, to := 0, 0, 0
				if ranked {
					axis, from, _ = kd.SplitRanked(p, lo, hi, weight, total, depth)
					to = from + 1
				} else {
					var ok bool
					if axis, from, to, _, ok = kd.SplitSorted(p, lo, hi, weight, total, depth); !ok {
						return
					}
				}
				// The pivots take [lo, lo+to-from), the left child the rest of
				// [lo, lo+to), the right child [lo+to, hi).
				p.Partition(axis, lo, hi, from, to)
				mid := lo + to
				if !wide {
					walk(p, lo+to-from, mid, depth+1, false)
					walk(p, mid, hi, depth+1, false)
					return
				}
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					walk(p, lo+to-from, mid, depth+1, true)
				}()
				walk(p, mid, hi, depth+1, true)
				wg.Wait()
			}
			one, two := Presort(n, dim, col, nil), Presort(n, dim, col, nil)
			walk(one, 0, n, 0, false)
			walk(two, 0, n, 0, true)
			for a := 0; a < dim; a++ {
				if !slices.Equal(one.List(a, 0, n), two.List(a, 0, n)) {
					t.Fatalf("d=%d ranked=%v axis %d: two-wide lists differ from one-wide", dim, ranked, a)
				}
			}
		}
	}
}
