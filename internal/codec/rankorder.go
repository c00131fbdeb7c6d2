package codec

import (
	"slices"

	"kwsc/internal/pager"
	"kwsc/internal/spart"
)

// This file is the rank order of a snapshot checkpoint: the kd leaf order
// its index sections are numbered in. The entries are split at the median of
// their bounding box's widest coordinate, always at a multiple of the cell
// size, until one cell is left; rank r is position r of the resulting leaf
// order. Cell c is ranks [c*cell, (c+1)*cell) — one page of SecPoints when
// 8*dim divides the page size, at most two otherwise — and every node of the
// tree is an interval of cells, so the reader rebuilds the tree from the
// cell count and CellSplit alone (core.PagedBase). Coordinates are ordered
// as rank space orders them (dataset.RankKey: -0 ties +0), ties by entry
// index, and a cell lists its entries ascending, which makes the order, and
// so the file's bytes, a function of the entry set.

// CellSize is the number of ranks in one cell of a dim-dimensional snapshot.
func CellSize(dim int) int { return pager.PageSize / (8 * dim) }

// CellSplit returns where the node over cells [lo, hi), hi-lo >= 2, splits:
// its children cover [lo, mid) and [mid, hi).
func CellSplit(lo, hi int) int { return lo + (hi-lo+1)/2 }

// kdLeafOrder computes the rank order of n points: rankEntry[r] is the entry
// at rank r, and boxes holds one bounding box per cell, dim lows then dim
// highs.
//
// The entries are presorted on every axis (spart.Presort); a node is then the
// same interval of each sorted list, so its box is read off the lists' ends,
// its median split is the middle of one list, and spart's stable partition
// carries the other lists along: O(dim * n) a level and O(dim * n * log n)
// whatever the points are.
func kdLeafOrder(points []float64, dim, n int) (rankEntry []int32, boxes []float64) {
	cell := CellSize(dim)
	cells := (n + cell - 1) / cell
	rankEntry = make([]int32, n)
	boxes = make([]float64, 2*dim*cells)
	if n == 0 {
		return rankEntry, boxes
	}
	p := spart.Presort(n, dim, points, nil)
	box := make([]float64, 2*dim)
	var split func(lo, hi int)
	split = func(lo, hi int) {
		from, to := lo*cell, min(hi*cell, n)
		into := box
		if hi-lo == 1 {
			into = boxes[2*dim*lo : 2*dim*hi]
		}
		for a := 0; a < dim; a++ {
			l := p.List(a, from, to)
			into[a], into[dim+a] = points[int(l[0])*dim+a], points[int(l[len(l)-1])*dim+a]
		}
		if hi-lo == 1 {
			copy(rankEntry[from:to], p.List(0, from, to))
			slices.Sort(rankEntry[from:to])
			return
		}
		axis := 0
		for a := 1; a < dim; a++ {
			if box[dim+a]-box[a] > box[dim+axis]-box[axis] {
				axis = a
			}
		}
		mid := CellSplit(lo, hi)
		p.Partition(axis, from, to, mid*cell-from, mid*cell-from)
		split(lo, mid)
		split(mid, hi)
	}
	split(0, cells)
	return rankEntry, boxes
}
