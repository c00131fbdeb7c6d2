package codec

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refLeafOrder is kdLeafOrder's definition run literally: at every node,
// sort the entries on the widest coordinate of their bounding box, ties by
// entry index, and cut at the cell multiple CellSplit names; a cell lists its
// entries ascending.
func refLeafOrder(points []float64, dim, n int) []int32 {
	cell := CellSize(dim)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	var split func(lo, hi int)
	split = func(lo, hi int) {
		part := order[lo*cell : min(hi*cell, n)]
		if hi-lo == 1 {
			slices.Sort(part)
			return
		}
		axis, widest := 0, math.Inf(-1)
		for a := 0; a < dim; a++ {
			mn, mx := math.Inf(1), math.Inf(-1)
			for _, e := range part {
				v := points[int(e)*dim+a]
				mn, mx = math.Min(mn, v), math.Max(mx, v) // NaN poisons both, as in the box
			}
			if w := mx - mn; w > widest {
				axis, widest = a, w
			}
		}
		slices.SortFunc(part, func(x, y int32) int {
			if c := cmp.Compare(sortableBits(points[int(x)*dim+axis]), sortableBits(points[int(y)*dim+axis])); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
		mid := CellSplit(lo, hi)
		split(lo, mid)
		split(mid, hi)
	}
	if n > 0 {
		split(0, (n+cell-1)/cell)
	}
	return order
}

// TestKDLeafOrderMatchesDefinition: the presorted build computes exactly the
// order its definition gives — on uniform points, on heavy ties, on one value
// everywhere — and its boxes are the cells' tight bounding boxes.
func TestKDLeafOrderMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for dim := 1; dim <= 4; dim++ {
		cell := CellSize(dim)
		for _, n := range []int{0, 1, cell - 1, cell, cell + 1, 7*cell + 3, 16 * cell} {
			for name, coord := range map[string]func() float64{
				"uniform": rng.Float64,
				"ties":    func() float64 { return float64(rng.Intn(3)) },
				"equal":   func() float64 { return -2.5 },
				"signs":   func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)) },
			} {
				points := make([]float64, n*dim)
				for i := range points {
					points[i] = coord()
				}
				got, boxes := kdLeafOrder(points, dim, n)
				if want := refLeafOrder(points, dim, n); !slices.Equal(got, want) {
					t.Fatalf("d=%d n=%d %s: rank order differs from the definition's", dim, n, name)
				}
				for c := 0; c*cell < n; c++ {
					for a := 0; a < dim; a++ {
						mn, mx := math.Inf(1), math.Inf(-1)
						for _, e := range got[c*cell : min((c+1)*cell, n)] {
							mn, mx = min(mn, points[int(e)*dim+a]), max(mx, points[int(e)*dim+a])
						}
						if lo, hi := boxes[2*dim*c+a], boxes[2*dim*c+dim+a]; lo != mn || hi != mx {
							t.Fatalf("d=%d n=%d %s: cell %d axis %d box [%v,%v], points span [%v,%v]", dim, n, name, c, a, lo, hi, mn, mx)
						}
					}
				}
			}
		}
	}
}

// TestKDLeafOrderNonFinite: NaN and infinite coordinates keep the order a
// permutation, and a cell holding a NaN is unbounded on that axis.
func TestKDLeafOrderNonFinite(t *testing.T) {
	const dim = 2
	n := 3*CellSize(dim) + 1
	rng := rand.New(rand.NewSource(5))
	points := make([]float64, n*dim)
	for i := range points {
		points[i] = rng.Float64()
	}
	points[2*10], points[2*11+1], points[2*12] = math.NaN(), math.Inf(1), math.Inf(-1)
	points[2*13+1] = -math.NaN()
	got, boxes := kdLeafOrder(points, dim, n)
	seen := make([]bool, n)
	for r, e := range got {
		if seen[e] {
			t.Fatalf("entry %d ranked twice", e)
		}
		seen[e] = true
		c := r / CellSize(dim)
		for a := 0; a < dim; a++ {
			v, lo, hi := points[int(e)*dim+a], boxes[2*dim*c+a], boxes[2*dim*c+dim+a]
			if v != v && !(math.IsInf(lo, -1) && math.IsInf(hi, 1)) || v == v && !(lo <= v && v <= hi) {
				t.Fatalf("rank %d: coordinate %v outside cell %d's [%v,%v]", r, v, c, lo, hi)
			}
		}
	}
}
