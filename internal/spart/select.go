package spart

import (
	"cmp"
	"math/bits"
	"slices"
)

// weightedMedian returns the smallest value c among objs with
// 2·W(<= c) >= W(objs) — what a prefix-weight scan of objs sorted by value
// returns, whatever the order of ties, since no weight is negative — and
// ok = false when all values are equal, so no split exists. It reorders objs,
// which must be non-empty, and reports its partition rounds.
//
// A round three-way partitions the range in play around the median of three
// pseudo-random values and keeps the side holding the answer. The answer is
// the median by weight, so a round keeps over half the range whenever its
// pivot misses; a round keeping over three quarters is a bad one, and after
// 2·log2 n of those the rest is sorted. Expected linear, O(n log n) at worst.
func weightedMedian(objs []int32, key func(int32) float64, weight []int32) (c float64, ok bool, rounds int) {
	total := totalWeight(objs, weight)
	// The answer is in objs[lo:hi]; objs[:lo], all smaller, weigh below.
	lo, hi, below := 0, len(objs), int64(0)
	seed := uint64(len(objs))*0x9e3779b97f4a7c15 | 1
	pick := func() float64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return key(objs[lo+int(seed%uint64(hi-lo))])
	}
	for bad := 2 * bits.Len(uint(len(objs))); hi-lo > 16 && bad > 0; {
		rounds++
		n, p := hi-lo, median3(pick(), pick(), pick())
		lt, i, gt := lo, lo, hi // [lo, lt) < p, [lt, i) == p, [gt, hi) > p
		var wl, we int64
		for i < gt {
			switch id, v := objs[i], key(objs[i]); {
			case v < p:
				objs[i], objs[lt] = objs[lt], id
				wl += weightOf(weight, id)
				lt, i = lt+1, i+1
			case v > p:
				gt--
				objs[i], objs[gt] = objs[gt], id
			default:
				we += weightOf(weight, id)
				i++
			}
		}
		switch {
		case rounds == 1 && lt == lo && gt == hi:
			return p, false, rounds
		case lt > lo && 2*(below+wl) >= total:
			hi = lt
		case 2*(below+wl+we) >= total:
			return p, true, rounds
		default:
			below, lo = below+wl+we, gt
		}
		if 4*(hi-lo) > 3*n {
			bad--
		}
	}
	rest := objs[lo:hi]
	slices.SortFunc(rest, func(a, b int32) int { return cmp.Compare(key(a), key(b)) })
	ok = rounds > 0 || key(rest[0]) != key(rest[len(rest)-1])
	for _, id := range rest {
		if below += weightOf(weight, id); 2*below >= total {
			return key(id), ok, rounds
		}
	}
	return key(rest[len(rest)-1]), ok, rounds
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	return max(a, min(b, c))
}
