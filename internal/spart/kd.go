package spart

import (
	"cmp"
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

// Split implements Splitter by sorting a copy of objs on each axis it tries
// and handing the lists to SplitSorted.
func (k *KD) Split(cell Cell, objs []int32, pts []geom.Point, weight []int32, depth int) ([]Cell, []int8, bool) {
	sorted := func(axis int) []int32 {
		s := slices.Clone(objs)
		slices.SortFunc(s, func(a, b int32) int { return cmp.Compare(pts[a][axis], pts[b][axis]) })
		return s
	}
	coord := func(id int32, axis int) float64 { return pts[id][axis] }
	cells, axis, _, _, ok := k.SplitSorted(cell, sorted, coord, weight, totalWeight(objs, weight), depth)
	if !ok {
		return nil, nil, false
	}
	split := cells[0].(*geom.Rect).Hi[axis]
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
	return cells, assign, true
}

// SplitSorted is Split for a caller that keeps a node's objects sorted on
// every axis: sorted(a) lists them ascending on axis a, coord reads a
// coordinate, and total is the objects' weight. The split value is the
// smallest c with 2·W(<= c) >= total, read off a prefix-weight scan of the
// split axis's list; on that list the pivots are [from, to), the objects
// before them go to child 0 and those after to child 1.
func (k *KD) SplitSorted(cell Cell, sorted func(axis int) []int32, coord func(id int32, axis int) float64, weight []int32, total int64, depth int) (cells []Cell, axis, from, to int, ok bool) {
	// Every coordinate equal on the axis: with rank-space input this cannot
	// happen for two objects, but raw coordinates try the remaining axes
	// before giving up.
	for off := 0; off < k.Dim; off++ {
		axis = (depth + off) % k.Dim
		s := sorted(axis)
		if coord(s[0], axis) == coord(s[len(s)-1], axis) {
			continue
		}
		i, below := 0, weightOf(weight, s[0])
		for 2*below < total {
			i++
			below += weightOf(weight, s[i])
		}
		c := coord(s[i], axis)
		for from = i; from > 0 && coord(s[from-1], axis) == c; from-- {
		}
		for to = i + 1; to < len(s) && coord(s[to], axis) == c; to++ {
		}
		left, right := cell.(*geom.Rect).Clone(), cell.(*geom.Rect).Clone()
		left.Hi[axis], right.Lo[axis] = c, c
		return []Cell{left, right}, axis, from, to, true
	}
	return nil, 0, 0, 0, false
}

// Relate implements Splitter.
func (k *KD) Relate(c Cell, q geom.Region) geom.Relation {
	r := c.(*geom.Rect)
	return q.RelateRect(r.Lo, r.Hi)
}
