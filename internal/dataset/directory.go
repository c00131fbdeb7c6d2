package dataset

// Directory narrows searches over one ascending keyword column to a few
// positions: the column's value range [lo, hi] is cut into a power-of-two
// number of equal-width buckets, and first[b] is the first position whose
// value falls in bucket b or later (first[nb] is the column's length). A
// search for w reads first[bucket(w)] and first[bucket(w)+1] and needs to
// look only between them, so a column whose values spread evenly is searched
// in O(1) expected time and any column in O(log n).
//
// The whole correctness argument is that bucket is monotone in the value: it
// subtracts, multiplies by a positive factor and clamps, all in floating
// point, before converting to an integer, and each of those steps preserves
// order; every uint32 converts to float64 exactly. Every position before
// first[bucket(w)] therefore holds a value below w and every position from
// first[bucket(w)+1] on a value above it.
//
// A column shorter than dirMinLen, or holding one value, has no directory:
// the zero Directory, whose Span is always the whole column, so every search
// runs through the same call.
type Directory struct {
	lo, scale, top float64 // bucket(w) = clamp((w-lo)*scale, 0, top)
	first          []int32
}

// dirMinLen is the shortest column worth a directory, and dirPerBucket the
// number of values per bucket a directory aims at (one int32 per that many
// values).
const (
	dirMinLen    = 16
	dirPerBucket = 4
)

// NewDirectory derives the directory of vals, which must be ascending.
func NewDirectory(vals []Keyword) Directory {
	n := len(vals)
	if n < dirMinLen || vals[0] == vals[n-1] {
		return Directory{}
	}
	lo, hi := float64(vals[0]), float64(vals[n-1])
	nb := 1
	for nb*2 <= n/dirPerBucket {
		nb *= 2
	}
	d := Directory{lo: lo, scale: float64(nb) / (hi - lo), top: float64(nb - 1), first: make([]int32, nb+1)}
	b := 0 // first[0..b] are filled
	for p, v := range vals {
		for vb := d.bucket(v); b < vb; {
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

// bucket is the monotone map from a value to its bucket.
func (d *Directory) bucket(w Keyword) int {
	x := (float64(w) - d.lo) * d.scale
	if x < 0 {
		return 0
	}
	if x > d.top {
		return int(d.top)
	}
	return int(x)
}

// Span returns the positions [from, to) of an ascending column of n values
// that a search for w must examine: every position before from holds a value
// below w and every position from to on a value above it. Both the first
// position holding a value >= w and the first holding one > w lie in
// [from, to].
func (d *Directory) Span(w Keyword, n int) (from, to int) {
	if d.first == nil {
		return 0, n
	}
	b := d.bucket(w)
	return int(d.first[b]), int(d.first[b+1])
}

// Words is the directory's footprint in words: two int32s to a word.
func (d *Directory) Words() int64 { return (int64(len(d.first)) + 1) / 2 }
