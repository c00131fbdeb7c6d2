package dataset

import "math"

// Directory narrows searches over one ascending column to a few positions:
// the column's finite value range [lo, hi] is cut into a power-of-two number
// of equal-width buckets, and first[b] is the first position whose value falls
// in bucket b or later (first[nb] is the column's length). A search for v
// reads first[bucket(v)] and first[bucket(v)+1] and needs to look only
// between them, so a column whose values spread evenly is searched in O(1)
// expected time and any column in O(log n).
//
// The whole correctness argument is that bucket is monotone in the value: it
// subtracts, multiplies by a positive factor and clamps, all in floating
// point, before converting to an integer, and each of those steps preserves
// order. ±Inf and values outside [lo, hi] land in the end buckets. Every
// position before first[bucket(v)] therefore holds a value below v and every
// position from first[bucket(v)+1] on a value above it.
//
// A column shorter than dirMinLen, or with no finite spread, has no
// directory: the zero Directory, whose Span is always the whole column, so
// every search runs through the same call.
type Directory struct {
	lo, scale, top float64 // bucket(v) = clamp((v-lo)*scale, 0, top)
	first          []int32
}

// dirMinLen is the shortest column worth a directory, and dirPerBucket the
// number of values per bucket a directory aims at (one int32 per that many
// values).
const (
	dirMinLen    = 16
	dirPerBucket = 4
)

// NewDirectory derives the directory of vals, which must be ascending (as the
// float compares; NaN-free). A keyword column converts exactly: every uint32
// is a float64.
func NewDirectory[T ~float64 | ~uint32](vals []T) Directory {
	n := len(vals)
	if n < dirMinLen {
		return Directory{}
	}
	// The finite range: infinities sit at the ends of an ascending column.
	i, j := 0, n-1
	for i < n && math.IsInf(float64(vals[i]), -1) {
		i++
	}
	for j >= i && math.IsInf(float64(vals[j]), 1) {
		j--
	}
	if i >= j {
		return Directory{}
	}
	lo, hi := float64(vals[i]), float64(vals[j])
	nb := 1
	for nb*2 <= n/dirPerBucket {
		nb *= 2
	}
	// hi/2 - lo/2 cannot overflow where hi - lo could (±1e308).
	scale := float64(nb) / 2 / (hi/2 - lo/2)
	if !(scale > 0) || math.IsInf(scale, 1) {
		return Directory{} // no finite spread to cut: equal or subnormal-close ends
	}
	d := Directory{lo: lo, scale: scale, top: float64(nb - 1), first: make([]int32, nb+1)}
	b := 0 // first[0..b] are filled
	for p, v := range vals {
		for vb := d.bucket(float64(v)); b < vb; {
			b++
			d.first[b] = int32(p)
		}
	}
	for b < nb {
		b++
		d.first[b] = int32(n)
	}
	return d
}

// bucket is the monotone map from a value to its bucket. NaN, which a query
// never carries, lands in bucket 0.
func (d *Directory) bucket(v float64) int {
	x := (v - d.lo) * d.scale
	if !(x >= 0) {
		return 0
	}
	if x > d.top {
		return int(d.top)
	}
	return int(x)
}

// Span returns the positions [from, to) of an ascending column of n values
// that a search for v must examine: every position before from holds a value
// below v and every position from to on a value above it. Both the first
// position holding a value >= v and the first holding one > v lie in
// [from, to].
func (d *Directory) Span(v float64, n int) (from, to int) {
	if d.first == nil {
		return 0, n
	}
	b := d.bucket(v)
	return int(d.first[b]), int(d.first[b+1])
}

// Words is the directory's footprint in words: two int32s to a word.
func (d *Directory) Words() int64 { return (int64(len(d.first)) + 1) / 2 }
