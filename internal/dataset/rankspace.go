package dataset

import "math"

// RankSpace implements Step 4 of the transformation framework (Section 3.4):
// it removes the general-position assumption by converting coordinates to
// ranks. Objects are sorted on each dimension with ties broken by the object
// with the smaller id, so every object receives a distinct integer rank per
// dimension, and the objects whose coordinate lies in any interval occupy a
// contiguous rank range. Only Theorem 2's x-dimension trees materialise the
// ranks, to order their cuts while they build; a kd build splits in the same
// order by presorting the coordinates themselves (RankKey, ties by id), and
// every index queries in the points' own coordinates (DESIGN.md,
// substitution 2).
type RankSpace struct {
	ranks [][]int32 // per dim, per object: the object's rank
}

// NewRankSpace ranks every dimension of the dataset: one radix sort per
// dimension, keyed by RankKey.
func NewRankSpace(ds *Dataset) *RankSpace {
	d, n := ds.Dim(), ds.Len()
	rs := &RankSpace{ranks: make([][]int32, d)}
	keys, spare := make([]SortKey, n), make([]SortKey, n)
	for j := 0; j < d; j++ {
		for i := range keys {
			keys[i] = SortKey{RankKey(ds.points[i*d+j]), int32(i)}
		}
		ranks := make([]int32, n)
		for r, k := range RadixSort(keys, spare) {
			ranks[k.ID] = int32(r)
		}
		rs.ranks[j] = ranks
	}
	return rs
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

// radixBits is RadixSort's digit width: six passes of 11 bits cover a
// 64-bit key, and a pass's 2048 counters stay in the L1 cache. Below
// radixSmallN keys, where clearing and summing 6 × 2048 counters costs more
// than the passes themselves, it takes byte digits: 8 × 256 counters
// (BenchmarkRadixSort times both widths).
const (
	radixBits   = 11
	radixSmallN = 512
)

// RadixSort sorts a by Key, stably — a listing ids ascending comes out in
// (Key, ID) order — using b, as long as a, as the other buffer of an LSD radix
// sort, and returns whichever buffer holds the result. A digit every key
// shares (the exponent's, for coordinates of one magnitude) costs no pass.
func RadixSort(a, b []SortKey) []SortKey {
	if len(a) < radixSmallN {
		return radixSort8(a, b)
	}
	return radixSort11(a, b)
}

// radixSort11 is RadixSort on radixBits-wide digits.
func radixSort11(a, b []SortKey) []SortKey {
	const digits, mask = (64 + radixBits - 1) / radixBits, 1<<radixBits - 1
	var count [digits][1 << radixBits]int32
	for _, p := range a {
		for d := range count {
			count[d][p.Key>>(radixBits*d)&mask]++
		}
	}
	for d := range count {
		c := &count[d]
		shift := radixBits * d
		if len(a) > 0 && int(c[a[0].Key>>shift&mask]) == len(a) {
			continue
		}
		sum := int32(0)
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, p := range a {
			digit := p.Key >> shift & mask
			b[c[digit]] = p
			c[digit]++
		}
		a, b = b, a
	}
	return a
}

// radixSort8 is RadixSort on byte digits.
func radixSort8(a, b []SortKey) []SortKey {
	var count [8][256]int32
	for _, p := range a {
		for d := range count {
			count[d][uint8(p.Key>>(8*d))]++
		}
	}
	for d := range count {
		c := &count[d]
		shift := 8 * d
		if len(a) > 0 && int(c[uint8(a[0].Key>>shift)]) == len(a) {
			continue
		}
		sum := int32(0)
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, p := range a {
			digit := uint8(p.Key >> shift)
			b[c[digit]] = p
			c[digit]++
		}
		a, b = b, a
	}
	return a
}

// Rank returns object i's rank on dimension j.
func (rs *RankSpace) Rank(i int32, j int) int32 { return rs.ranks[j][i] }
