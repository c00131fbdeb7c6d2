package spart

import (
	"slices"

	"kwsc/internal/geom"
)

// KD is the kd-tree splitter of Section 3.1, generalized to d dimensions:
// the cell of a node at depth t is split by an axis-parallel hyperplane on
// dimension t mod d through the weighted-median object. Objects exactly on
// the split hyperplane become pivots — with rank-space coordinates
// (Section 3.4) that is exactly one object per split, giving the
// constant-size pivot sets the analysis needs (footnote 8).
//
// For d = 2 the crossing sensitivity of any axis-parallel line is
// O(sqrt(N)) (Section 3.3), which is what Theorem 1 rests on.
type KD struct {
	// Dim is the dimensionality of the points.
	Dim int
}

// Fanout implements Splitter.
func (k *KD) Fanout() int { return 2 }

// RootCell implements Splitter: the root cell is all of R^d.
func (k *KD) RootCell(pts []geom.Point, objs []int32) Cell {
	return geom.UniverseRect(k.Dim)
}

// Split implements Splitter.
func (k *KD) Split(cell Cell, objs []int32, pts []geom.Point, weight []int32, depth int) ([]Cell, []int8, bool) {
	rect := cell.(*geom.Rect)
	axis := depth % k.Dim
	coord := func(id int32) float64 { return pts[id][axis] }
	order := slices.Clone(objs)
	split, ok, _ := weightedMedian(order, coord, weight)
	// All coordinates equal on this axis; with rank-space input this cannot
	// happen for len(objs) > 1, but guard for raw coordinates: try the
	// remaining axes before giving up.
	for off := 1; !ok && off < k.Dim; off++ {
		axis = (depth + off) % k.Dim
		split, ok, _ = weightedMedian(order, coord, weight)
	}
	if !ok {
		return nil, nil, false
	}
	left := rect.Clone()
	left.Hi[axis] = split
	right := rect.Clone()
	right.Lo[axis] = split
	assign := make([]int8, len(objs))
	for i, id := range objs {
		switch c := pts[id][axis]; {
		case c < split:
			assign[i] = 0
		case c > split:
			assign[i] = 1
		default:
			assign[i] = PivotChild
		}
	}
	return []Cell{left, right}, assign, true
}

// Relate implements Splitter.
func (k *KD) Relate(c Cell, q geom.Region) geom.Relation {
	r := c.(*geom.Rect)
	return q.RelateRect(r.Lo, r.Hi)
}
