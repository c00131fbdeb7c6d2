package codec

import (
	"math"

	"kwsc/internal/dataset"
	"kwsc/internal/pager"
)

// This file is the rank order of a snapshot checkpoint: the kd leaf order
// its index sections are numbered in. The entries are split at the median of
// their bounding box's widest coordinate, always at a multiple of the cell
// size, until one cell is left; rank r is position r of the resulting leaf
// order. Cell c is ranks [c*cell, (c+1)*cell) — one page of SecPoints when
// 8*dim divides the page size, at most two otherwise — and every node of the
// tree is an interval of cells, so the reader rebuilds the tree from the
// cell count and CellSplit alone (core.PagedBase). Coordinates are ordered
// by dataset.SortableBits — -0 before +0, NaN beyond the infinities — entries
// with equal bits break by entry index, and a cell lists its entries
// ascending, which makes the order, and so the file's bytes, a function of the
// entry set.

// CellSize is the number of ranks in one cell of a dim-dimensional snapshot.
func CellSize(dim int) int { return pager.PageSize / (8 * dim) }

// CellSplit returns where the node over cells [lo, hi), hi-lo >= 2, splits:
// its children cover [lo, mid) and [mid, hi).
func CellSplit(lo, hi int) int { return lo + (hi-lo+1)/2 }

// sortedFloat inverts dataset.SortableBits, the key the entries are sorted by.
func sortedFloat(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

var keyNegInf, keyPosInf = dataset.SortableBits(math.Inf(-1)), dataset.SortableBits(math.Inf(1))

// kdLeafOrder computes the rank order of n points: rankEntry[r] is the entry
// at rank r, and boxes holds one bounding box per cell, dim lows then dim
// highs. An axis on which a cell holds a NaN is unbounded, as
// Rect.ContainsPoint lets NaN through every interval.
//
// The entries are sorted once on every axis; a node is then the same interval
// of each sorted list, so its box is read off the lists' ends, its median
// split is the middle of one list, and the other lists follow by a stable
// partition on which side each entry went: O(dim * n) a level and
// O(dim * n * log n) whatever the points are.
func kdLeafOrder(points []float64, dim, n int) (rankEntry []int32, boxes []float64) {
	cell := CellSize(dim)
	cells := (n + cell - 1) / cell
	rankEntry = make([]int32, n)
	boxes = make([]float64, 2*dim*cells)
	if n == 0 {
		return rankEntry, boxes
	}
	// order[a*n:(a+1)*n] lists the entries ascending on axis a.
	order := make([]int32, dim*n)
	keys, spare := make([]dataset.SortKey, n), make([]dataset.SortKey, n)
	for a := 0; a < dim; a++ {
		for i := range keys {
			keys[i] = dataset.SortKey{Key: dataset.SortableBits(points[i*dim+a]), ID: int32(i)}
		}
		for i, k := range dataset.RadixSort(keys, spare) {
			order[a*n+i] = k.ID
		}
	}
	// mark[e] is minus the last inner node that sent entry e left, and in the
	// end the cell e lies in.
	mark := make([]int32, n)
	right := make([]int32, n)
	box := make([]float64, 2*dim)
	node := int32(0)
	var split func(lo, hi int)
	split = func(lo, hi int) {
		from, to := lo*cell, min(hi*cell, n)
		into := box
		if hi-lo == 1 {
			into = boxes[2*dim*lo : 2*dim*hi]
		}
		for a := 0; a < dim; a++ {
			kmin := dataset.SortableBits(points[int(order[a*n+from])*dim+a])
			kmax := dataset.SortableBits(points[int(order[a*n+to-1])*dim+a])
			if kmin < keyNegInf || kmax > keyPosInf {
				kmin, kmax = keyNegInf, keyPosInf
			}
			into[a], into[dim+a] = sortedFloat(kmin), sortedFloat(kmax)
		}
		if hi-lo == 1 {
			for _, e := range order[from:to] {
				mark[e] = int32(lo)
			}
			return
		}
		axis := 0
		for a := 1; a < dim; a++ {
			if box[dim+a]-box[a] > box[dim+axis]-box[axis] {
				axis = a
			}
		}
		mid := CellSplit(lo, hi)
		node--
		for _, e := range order[axis*n+from : axis*n+mid*cell] {
			mark[e] = node
		}
		for a := 0; a < dim; a++ {
			if a == axis {
				continue
			}
			// Left entries close up in place, right ones wait in right; both
			// slots are written and only the left count depends on the entry,
			// so the pass has no branch to mispredict.
			list := order[a*n+from : a*n+to]
			l := 0
			for i, e := range list {
				list[l], right[i-l] = e, e
				if mark[e] == node {
					l++
				}
			}
			copy(list[l:], right[:len(list)-l])
		}
		split(lo, mid)
		split(mid, hi)
	}
	split(0, cells)
	// Counting sort by cell: entries ascending inside each.
	next := make([]int32, cells)
	for c := range next {
		next[c] = int32(c * cell)
	}
	for e, c := range mark {
		rankEntry[next[c]] = int32(e)
		next[c]++
	}
	return rankEntry, boxes
}
