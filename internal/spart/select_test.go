package spart

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"kwsc/internal/geom"
)

// sortedMedian is the oracle: sort the objects by value, ties by id, and stop
// the prefix-weight scan at the first object that reaches half the total —
// the median every splitter computed before the select replaced it.
func sortedMedian(objs []int32, key func(int32) float64, weight []int32) (float64, bool) {
	order := slices.Clone(objs)
	sort.Slice(order, func(a, b int) bool {
		va, vb := key(order[a]), key(order[b])
		if va != vb {
			return va < vb
		}
		return order[a] < order[b]
	})
	total := totalWeight(order, weight)
	var acc int64
	for _, id := range order {
		if acc += weightOf(weight, id); 2*acc >= total {
			return key(id), key(order[0]) != key(order[len(order)-1])
		}
	}
	return key(order[len(order)-1]), key(order[0]) != key(order[len(order)-1])
}

// TestWeightedMedianMatchesSort holds the select to the sort-based median on
// every input shape a splitter meets, with weights 1-50 and n from 1 to 2^16,
// and bounds its partition rounds on the shapes that defeat a fixed pivot
// rule. Rounds are counted, not timed.
func TestWeightedMedianMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name  string
		value func(i, n int) float64
	}{
		{"random", func(int, int) float64 { return rng.Float64() }},
		{"sorted", func(i, _ int) float64 { return float64(i) }},
		{"reversed", func(i, n int) float64 { return float64(n - i) }},
		{"organ-pipe", func(i, n int) float64 { return float64(min(i, n-1-i)) }},
		{"all-equal", func(int, int) float64 { return 7 }},
		{"two-valued", func(int, int) float64 { return float64(rng.Intn(2)) }},
		{"few-values", func(int, int) float64 { return float64(rng.Intn(5)) }},
		{"infinities", func(i, _ int) float64 {
			switch i % 5 {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return rng.Float64()
		}},
	}
	sizes := []int{1, 2, 3, 5, 16, 17, 33, 100, 1000, 4097}
	for n := 1 << 13; n <= 1<<16; n <<= 1 {
		sizes = append(sizes, n)
	}
	for _, sh := range shapes {
		for _, n := range sizes {
			pts := make([]geom.Point, n)
			weight := make([]int32, n)
			for i := range pts {
				pts[i] = geom.Point{sh.value(i, n), rng.Float64()}
				weight[i] = int32(1 + rng.Intn(50))
			}
			objs := make([]int32, n)
			for i := range objs {
				objs[i] = int32(i)
			}
			// The input order matters to a pivot rule, so the shape is kept.
			for _, w := range [][]int32{weight, nil} {
				keys := []func(int32) float64{
					func(id int32) float64 { return pts[id][0] },
					func(id int32) float64 { return 0.6*pts[id][0] + 0.8*pts[id][1] },
				}
				for proj, key := range keys {
					name := fmt.Sprintf("%s/n=%d/unit=%v/proj=%v", sh.name, n, w == nil, proj == 1)
					want, wantOK := sortedMedian(objs, key, w)
					got, ok, rounds := weightedMedian(slices.Clone(objs), key, w)
					if got != want || ok != wantOK {
						t.Fatalf("%s: select %v (ok %v), sort %v (ok %v)", name, got, ok, want, wantOK)
					}
					// A pivot rule these shapes defeat runs toward n rounds (or
					// hands 2·log2 n bad ones to the sort); the select stays
					// within a small multiple of log2 n.
					if limit := 3*bits.Len(uint(n)) + 2; rounds > limit {
						t.Fatalf("%s: %d partition rounds, want <= %d", name, rounds, limit)
					}
				}
			}
		}
	}
}
