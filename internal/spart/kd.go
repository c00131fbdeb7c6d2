package spart

import (
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

// KD is the kd-tree splitter of Section 3.1, generalized to d dimensions:
// the cell of a node at depth t is split by an axis-parallel hyperplane on
// dimension t mod d at the weighted median. A median coordinate no other
// object shares makes its object the one pivot of the split — always so in
// rank space (Section 3.4, SplitRanked). A shared one moves the plane to the
// edge of the tie block that balances weight better, with no pivot. Either
// way a split has at most one pivot: the constant-size pivot sets the
// analysis needs (footnote 8), on raw coordinates too (DESIGN.md,
// substitution 2).
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

// Split implements Splitter by presorting the node's objects, as positions in
// objs, and handing the lists to SplitSorted. The child cells end at the
// coordinates on either side of the cut — the pivot's, on both sides, when
// there is one — so no arithmetic is done on a coordinate and ±Inf is an
// ordinary value.
func (k *KD) Split(cell Cell, objs []int32, pts []geom.Point, weight []int32, depth int) ([]Cell, []int8, bool) {
	col := make([]float64, len(objs)*k.Dim)
	for i, id := range objs {
		copy(col[i*k.Dim:(i+1)*k.Dim], pts[id])
	}
	p := Presort(len(objs), k.Dim, col, nil)
	var w []int32
	if weight != nil {
		w = make([]int32, len(objs))
		for i, id := range objs {
			w[i] = weight[id]
		}
	}
	axis, from, to, _, ok := k.SplitSorted(p, 0, len(objs), w, totalWeight(objs, weight), depth)
	if !ok {
		return nil, nil, false
	}
	s := p.List(axis, 0, len(objs))
	left, right := cell.(*geom.Rect).Clone(), cell.(*geom.Rect).Clone()
	cut := col[int(s[from])*k.Dim+axis]
	left.Hi[axis], right.Lo[axis] = cut, cut
	if from == to {
		left.Hi[axis] = col[int(s[from-1])*k.Dim+axis]
	}
	assign := make([]int8, len(objs))
	for j, i := range s {
		switch {
		case j < from:
			assign[i] = 0
		case j < to:
			assign[i] = PivotChild
		default:
			assign[i] = 1
		}
	}
	return []Cell{left, right}, assign, true
}

// SplitSorted chooses the split of the node over positions [lo, hi) of p, of
// total weight total. On the split axis's list, the entries before from go to
// child 0, those from to on to child 1, and [from, to), at most one entry, is
// the pivot set; left is the weight of the entries before from.
func (k *KD) SplitSorted(p *Presorted, lo, hi int, weight []int32, total int64, depth int) (axis, from, to int, left int64, ok bool) {
	// Every coordinate equal on the axis: the remaining axes are tried before
	// giving up.
	for off := 0; off < k.Dim; off++ {
		axis = (depth + off) % k.Dim
		s := p.List(axis, lo, hi)
		c := func(j int) float64 { return p.col[int(s[j])*p.dim+axis] }
		if c(0) == c(len(s)-1) {
			continue
		}
		// The median s[i] has a tie block [from, to), W(s[:from]) = wFrom and
		// W(s[:to]) = wTo.
		i, wTo := median(s, weight, total)
		m := c(i)
		from, to = i, i+1
		wFrom := wTo - weightOf(weight, s[i])
		for ; from > 0 && c(from-1) == m; from-- {
			wFrom -= weightOf(weight, s[from-1])
		}
		for ; to < len(s) && c(to) == m; to++ {
			wTo += weightOf(weight, s[to])
		}
		if to-from == 1 {
			return axis, from, to, wFrom, true
		}
		// 2·wFrom < total <= 2·wTo, so cutting at from leaves total-wFrom on
		// the heavier side and cutting at to leaves wTo.
		if from == 0 || to < len(s) && wTo < total-wFrom {
			return axis, to, to, wTo, true
		}
		return axis, from, from, wFrom, true
	}
	return 0, 0, 0, 0, false
}

// SplitRanked is SplitSorted for a node of at least two entries in rank
// space, where no two entries tie on any axis (Section 3.4 breaks every tie
// by id, as Presort's lists do): on axis depth mod Dim the median entry, at
// position at of the axis's list, is the one pivot, and left is the weight of
// the entries before it. This is SplitSorted's answer over distinct ranks,
// read off the list's order alone.
func (k *KD) SplitRanked(p *Presorted, lo, hi int, weight []int32, total int64, depth int) (axis, at int, left int64) {
	axis = depth % k.Dim
	s := p.List(axis, lo, hi)
	at, wTo := median(s, weight, total)
	return axis, at, wTo - weightOf(weight, s[at])
}

// median returns the position i of the median of s, the first entry with
// 2·W(s[:i+1]) >= total, and W(s[:i+1]).
func median(s []int32, weight []int32, total int64) (i int, w int64) {
	w = weightOf(weight, s[0])
	for 2*w < total {
		i++
		w += weightOf(weight, s[i])
	}
	return i, w
}

// Relate implements Splitter.
func (k *KD) Relate(c Cell, q geom.Region) geom.Relation {
	r := c.(*geom.Rect)
	return q.RelateRect(r.Lo, r.Hi)
}

// Presorted keeps the objects 0..n-1 of a kd build sorted on every axis: the
// node over positions [lo, hi) lists its objects ascending on axis a in
// List(a, lo, hi), ordered as rank space orders them (dataset.RankKey), ties
// by id. A split rearranges only its own node's positions, and the rank
// column is read-only once Presort returns, so the subtrees of a build may
// split concurrently and write nothing indexed by id.
type Presorted struct {
	n     int
	dim   int
	col   []float64 // object id's coordinate on axis a is col[id*dim+a]
	lists []int32   // axis a's list is lists[a*n : (a+1)*n]
	rank  []int32   // by id: object id's position in axis a's full list is rank[a*n+id]
	spare []int32   // by position: the right-hand side of a partition
}

// Presort sorts the objects 0..n-1 on each of dim axes, col holding object
// id's coordinates row-major, axis a at col[id*dim+a]: one dataset.RadixSort
// an axis, which also records every object's rank on the axis. col is never
// written, and splits read it for as long as the Presorted is in use.
//
// The axes sort independently. each, when not nil, runs task(0..dim-1) and
// returns when all are done, on as many goroutines as it likes, and every axis
// then sorts in buffers of its own; with each nil the axes sort one after
// another in one pair of buffers.
func Presort(n, dim int, col []float64, each func(tasks int, task func(a int))) *Presorted {
	p := &Presorted{n: n, dim: dim, col: col, lists: make([]int32, dim*n), rank: make([]int32, dim*n), spare: make([]int32, n)}
	var keys, spare []dataset.SortKey
	sortAxis := func(a int) {
		keys, spare := keys, spare
		if keys == nil {
			keys, spare = make([]dataset.SortKey, n), make([]dataset.SortKey, n)
		}
		for i := range keys {
			keys[i] = dataset.SortKey{Key: dataset.RankKey(col[i*dim+a]), ID: int32(i)}
		}
		l, rank := p.lists[a*n:(a+1)*n], p.rank[a*n:(a+1)*n]
		for r, k := range dataset.RadixSort(keys, spare) {
			l[r], rank[k.ID] = k.ID, int32(r)
		}
	}
	if each != nil {
		each(dim, sortAxis)
		return p
	}
	keys, spare = make([]dataset.SortKey, n), make([]dataset.SortKey, n)
	for a := 0; a < dim; a++ {
		sortAxis(a)
	}
	return p
}

// List returns the node over positions [lo, hi) sorted on axis a.
func (p *Presorted) List(a, lo, hi int) []int32 { return p.lists[a*p.n+lo : a*p.n+hi] }

// Partition splits the node over positions [lo, hi) as its list on axis
// reads: the entries before from go left, [from, to) are pivots, and those
// from to on go right. Afterwards every axis lists the node as the pivots, in
// the split axis's order, then the left entries, then the right ones, each
// group in the axis's own order — a stable partition, O(dim·(hi-lo)).
//
// The node's list on axis ascends in rank, so an entry's side follows from
// its rank on axis alone: below s[from]'s it is left, from s[to]'s on right,
// and in between a pivot. That holds for a rank-space split and for a cut at
// the edge of a tie block alike, and it writes nothing indexed by id.
func (p *Presorted) Partition(axis, lo, hi, from, to int) {
	s, npiv := p.List(axis, lo, hi), to-from
	rank := p.rank[axis*p.n : (axis+1)*p.n]
	first, past := int32(p.n), int32(p.n) // the ranks that start the pivots and the right side
	if from < len(s) {
		first = rank[s[from]]
	}
	if to < len(s) {
		past = rank[s[to]]
	}
	right := p.spare[lo:hi]
	for a := 0; a < p.dim; a++ {
		if a == axis {
			continue
		}
		// Left entries close up in place, right ones wait in spare, pivots are
		// dropped and copied back in front from the split axis's list: every
		// entry is written to both and only the counts depend on its side, so
		// the pass has no branch to mispredict. Ranks are below n < 2^31, so
		// the sign bit of r-first says r < first.
		l, nl, nr := p.List(a, lo, hi), 0, 0
		for _, e := range l {
			r := rank[e]
			l[nl], right[nr] = e, e
			nl += int(uint32(r-first) >> 31)
			nr += 1 - int(uint32(r-past)>>31)
		}
		copy(l[npiv+nl:], right[:nr])
		copy(l[npiv:], l[:nl])
		copy(l, s[from:to])
	}
	copy(right, s[from:to])
	copy(s[npiv:], s[:from])
	copy(s, right[:npiv])
}
