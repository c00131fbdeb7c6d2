package dataset

import (
	"math"

	"kwsc/internal/geom"
)

// RankSpace implements Step 4 of the transformation framework (Section 3.4):
// it removes the general-position assumption by converting coordinates to
// ranks. Objects are sorted on each dimension with ties broken by the object
// with the smaller id, so every object receives a distinct integer rank per
// dimension. A query rectangle in the original space converts to a rank-space
// rectangle by binary search, without affecting the result. The paper's bound
// for that is O(log N); a Directory per dimension narrows each search to one
// bucket's positions first, which makes the conversion O(1) expected on a
// column whose values spread evenly and keeps O(log N) as the worst case.
// ORP-KW needs the ranks only to build its tree, which it then queries in the
// original coordinates (DESIGN.md, substitution 2); the dimension-reduction
// index of Theorem 2 converts every query.
type RankSpace struct {
	dim    int
	sorted [][]float64 // per dim: coordinate values in rank order
	ranks  [][]int32   // per dim, per object: the object's rank
	dirs   []Directory // per dim: derived from sorted, never stored
}

// NewRankSpace builds the rank-space conversion for the dataset: one radix
// sort per dimension, keyed by RankKey.
func NewRankSpace(ds *Dataset) *RankSpace {
	d, n := ds.Dim(), ds.Len()
	rs := &RankSpace{
		dim:    d,
		sorted: make([][]float64, d),
		ranks:  make([][]int32, d),
	}
	keys, spare := make([]SortKey, n), make([]SortKey, n)
	for j := 0; j < d; j++ {
		for i := range keys {
			keys[i] = SortKey{RankKey(ds.points[i*d+j]), int32(i)}
		}
		sorted, ranks := make([]float64, n), make([]int32, n)
		for r, k := range RadixSort(keys, spare) {
			sorted[r] = ds.points[int(k.ID)*d+j]
			ranks[k.ID] = int32(r)
		}
		rs.sorted[j], rs.ranks[j] = sorted, ranks
	}
	rs.index()
	return rs
}

// index derives the directory of every dimension's sorted column.
func (rs *RankSpace) index() {
	rs.dirs = make([]Directory, rs.dim)
	for j, s := range rs.sorted {
		rs.dirs[j] = NewDirectory(s)
	}
}

// SortKey is one entry of RadixSort: a key beside the id it orders.
type SortKey struct {
	Key uint64
	ID  int32
}

// RankKey maps a coordinate to a uint64 that sorts as rank space orders it:
// as the float compares, with -0 read as +0, so the two zeros tie and break
// by id.
func RankKey(v float64) uint64 {
	if v == 0 {
		v = 0 // -0 == 0, so this makes it +0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// RadixSort sorts a by Key, stably — a listing ids ascending comes out in
// (Key, ID) order — using b, as long as a, as the other buffer of an LSD radix
// sort on bytes, and returns whichever buffer holds the result. A byte every
// key shares (the exponent bytes, for coordinates of one magnitude) costs no
// pass.
func RadixSort(a, b []SortKey) []SortKey {
	var count [8][256]int32
	for _, p := range a {
		for d := range count {
			count[d][byte(p.Key>>(8*d))]++
		}
	}
	for d := range count {
		c := &count[d]
		if len(a) > 0 && int(c[byte(a[0].Key>>(8*d))]) == len(a) {
			continue
		}
		sum := int32(0)
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, p := range a {
			digit := byte(p.Key >> (8 * d))
			b[c[digit]] = p
			c[digit]++
		}
		a, b = b, a
	}
	return a
}

// Dim returns the dimensionality.
func (rs *RankSpace) Dim() int { return rs.dim }

// Rank returns object i's rank on dimension j.
func (rs *RankSpace) Rank(i int32, j int) int32 { return rs.ranks[j][i] }

// RankPoints returns every object's point in rank space on dimensions
// [from, Dim()), the points cut from one column.
func (rs *RankSpace) RankPoints(from int) []geom.Point {
	d, n := rs.dim-from, len(rs.ranks[0])
	col := make([]float64, n*d)
	pts := make([]geom.Point, n)
	for i := range pts {
		p := col[i*d : (i+1)*d : (i+1)*d]
		for j := range p {
			p[j] = float64(rs.ranks[from+j][i])
		}
		pts[i] = p
	}
	return pts
}

// ToRankRect converts an original-space rectangle to rank space. ok=false
// means the rectangle contains no object on some dimension (the query result
// is empty). Correctness relies on ties being broken consistently: all
// objects whose coordinate lies in [lo, hi] occupy a contiguous rank range.
func (rs *RankSpace) ToRankRect(q *geom.Rect) (_ *geom.Rect, ok bool) {
	dst := &geom.Rect{Lo: make([]float64, rs.dim), Hi: make([]float64, rs.dim)}
	if !rs.ToRankRectInto(q, dst) {
		return nil, false
	}
	return dst, true
}

// ToRankRectInto is ToRankRect writing into a caller-supplied rectangle
// whose Lo/Hi already have length Dim(); it performs no allocations, which
// is what lets pooled query contexts reuse one rank rectangle per query.
// ok=false leaves dst in an unspecified state.
func (rs *RankSpace) ToRankRectInto(q *geom.Rect, dst *geom.Rect) (ok bool) {
	for j := 0; j < rs.dim; j++ {
		lr := rs.search(j, q.Lo[j], false)    // first rank with coord >= lo
		hr := rs.search(j, q.Hi[j], true) - 1 // last rank with coord <= hi
		if lr > hr {
			return false
		}
		dst.Lo[j], dst.Hi[j] = float64(lr), float64(hr)
	}
	return true
}

// search returns the first rank on dimension j whose coordinate is >= v, or
// with above the first whose coordinate is > v, binary-searching only the
// positions the dimension's directory leaves open. The search is written out
// so the conversion stays closure-free.
func (rs *RankSpace) search(j int, v float64, above bool) int {
	s := rs.sorted[j]
	lo, hi := rs.dirs[j].Span(v, len(s))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c := s[mid]; c < v || above && c == v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SpaceWords returns the footprint of the conversion tables and their
// directories in words.
func (rs *RankSpace) SpaceWords() int64 {
	var s int64
	for j := 0; j < rs.dim; j++ {
		s += int64(len(rs.sorted[j])) + int64(len(rs.ranks[j]))/2 + rs.dirs[j].Words()
	}
	return s
}
