package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"kwsc/internal/geom"
)

func small() *Dataset {
	return MustNew([]Object{
		{Point: geom.Point{1, 2}, Doc: []Keyword{3, 1, 3}}, // dup collapses
		{Point: geom.Point{4, 5}, Doc: []Keyword{2}},
		{Point: geom.Point{0, 0}, Doc: []Keyword{1, 2, 5}},
	})
}

func TestNewValidates(t *testing.T) {
	if _, err := New(nil); err != ErrEmpty {
		t.Fatalf("empty input: err = %v, want ErrEmpty", err)
	}
	if _, err := New([]Object{{Point: geom.Point{1}, Doc: nil}}); err == nil {
		t.Fatal("empty document must be rejected")
	}
	if _, err := New([]Object{
		{Point: geom.Point{1, 2}, Doc: []Keyword{1}},
		{Point: geom.Point{1}, Doc: []Keyword{1}},
	}); err == nil {
		t.Fatal("mixed dimensions must be rejected")
	}
	if _, err := New([]Object{{Point: geom.Point{}, Doc: []Keyword{1}}}); err == nil {
		t.Fatal("zero-dimensional points must be rejected")
	}
}

func TestAccessors(t *testing.T) {
	ds := small()
	if ds.Len() != 3 {
		t.Fatalf("Len = %d", ds.Len())
	}
	if ds.N() != 6 { // docs: {1,3}, {2}, {1,2,5}
		t.Fatalf("N = %d, want 6", ds.N())
	}
	if ds.W() != 6 { // max keyword 5 -> bound 6
		t.Fatalf("W = %d, want 6", ds.W())
	}
	if ds.Dim() != 2 {
		t.Fatalf("Dim = %d", ds.Dim())
	}
	if ds.DocLen(0) != 2 {
		t.Fatalf("DocLen(0) = %d, want 2 after dedupe", ds.DocLen(0))
	}
	if !ds.Point(1).Equal(geom.Point{4, 5}) {
		t.Fatal("Point accessor wrong")
	}
}

func TestHasAndHasAll(t *testing.T) {
	ds := small()
	if !ds.Has(0, 1) || !ds.Has(0, 3) || ds.Has(0, 2) {
		t.Fatal("Has wrong")
	}
	if !ds.HasAll(2, []Keyword{1, 2}) {
		t.Fatal("HasAll false negative")
	}
	if ds.HasAll(2, []Keyword{1, 4}) {
		t.Fatal("HasAll false positive")
	}
	if !ds.HasAll(0, nil) {
		t.Fatal("HasAll of no keywords is vacuously true")
	}
}

func TestValidateKeywords(t *testing.T) {
	if err := ValidateKeywords([]Keyword{1, 2}); err != nil {
		t.Fatalf("valid pair rejected: %v", err)
	}
	if err := ValidateKeywords([]Keyword{1}); err == nil {
		t.Fatal("k=1 must be rejected")
	}
	if err := ValidateKeywords([]Keyword{1, 1}); err == nil {
		t.Fatal("duplicates must be rejected")
	}
}

func TestFilterOracle(t *testing.T) {
	ds := small()
	got := ds.Filter(geom.NewRect([]float64{0, 0}, []float64{2, 3}), []Keyword{1})
	// Objects 0 (1,2) and 2 (0,0) are in range; both contain keyword 1.
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Filter = %v", got)
	}
}

func TestRankSpaceDistinctRanks(t *testing.T) {
	// Heavy ties: all x equal, several y equal.
	objs := []Object{
		{Point: geom.Point{1, 7}, Doc: []Keyword{0}},
		{Point: geom.Point{1, 7}, Doc: []Keyword{0}},
		{Point: geom.Point{1, 3}, Doc: []Keyword{0}},
		{Point: geom.Point{1, 9}, Doc: []Keyword{0}},
	}
	ds := MustNew(objs)
	rs := NewRankSpace(ds)
	for j := 0; j < 2; j++ {
		seen := map[int32]bool{}
		for i := 0; i < ds.Len(); i++ {
			r := rs.Rank(int32(i), j)
			if r < 0 || int(r) >= ds.Len() {
				t.Fatalf("rank out of range: %d", r)
			}
			if seen[r] {
				t.Fatalf("duplicate rank %d on dim %d", r, j)
			}
			seen[r] = true
		}
	}
	// Ties on y (7,7) must break by id: object 0 before object 1.
	if rs.Rank(0, 1) >= rs.Rank(1, 1) {
		t.Fatal("tie-break by id violated")
	}
}

// refRanks is NewRankSpace's definition run literally: sort each dimension
// by coordinate with the comparison operators, ties by id.
func refRanks(ds *Dataset) (ranks [][]int32) {
	n := ds.Len()
	for j := 0; j < ds.Dim(); j++ {
		order := make([]int32, n)
		for i := range order {
			order[i] = int32(i)
		}
		sort.Slice(order, func(a, b int) bool {
			pa, pb := ds.Point(order[a])[j], ds.Point(order[b])[j]
			if pa != pb {
				return pa < pb
			}
			return order[a] < order[b]
		})
		r := make([]int32, n)
		for k, id := range order {
			r[id] = int32(k)
		}
		ranks = append(ranks, r)
	}
	return ranks
}

// TestRankSpaceMatchesDefinition: the ranks are the ones a comparison sort
// gives — on random values, one value everywhere, two values, both zeros
// (which compare equal, so tie by id), infinities and subnormals — for n up
// to 2^16 and d up to 4.
func TestRankSpaceMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	tiny := math.SmallestNonzeroFloat64
	gens := map[string]func() float64{
		"random":  func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)) },
		"equal":   func() float64 { return 3.25 },
		"two":     func() float64 { return float64(rng.Intn(2)) - 0.5 },
		"zeros":   func() float64 { return []float64{math.Copysign(0, -1), 0, 1, -1}[rng.Intn(4)] },
		"extreme": func() float64 { return []float64{math.Inf(-1), math.Inf(1), tiny, -tiny, 7 * tiny, 0}[rng.Intn(6)] },
	}
	for d := 1; d <= 4; d++ {
		for _, n := range []int{1, 2, 3, 31, 255, 256, 257, 4099, 1 << 16} {
			for name, gen := range gens {
				objs := make([]Object, n)
				for i := range objs {
					objs[i] = Object{Point: make(geom.Point, d), Doc: []Keyword{0}}
					for j := range objs[i].Point {
						objs[i].Point[j] = gen()
					}
				}
				ds := MustNew(objs)
				got, want := NewRankSpace(ds).ranks, refRanks(ds)
				for j := 0; j < d; j++ {
					if !slices.Equal(got[j], want[j]) {
						t.Fatalf("%s d=%d n=%d: ranks on dimension %d differ from the definition's", name, d, n, j)
					}
				}
			}
		}
	}
}

// TestRadixSortMatchesStableSort: RadixSort's output is the stable sort of
// its input by Key, on either side of its digit-width cutoff — on coordinates through RankKey (both zeros, which tie,
// and repeated values), on keys spread over all 64 bits, on keys sharing
// every digit but one, and with the ids both ascending and shuffled, so
// stability is held to the input's order and not to the ids'.
func TestRadixSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	negZero := math.Copysign(0, -1)
	gens := map[string]func() uint64{
		"coords": func() uint64 {
			return RankKey([]float64{negZero, 0, 0.5, -0.5, rng.Float64(), -rng.NormFloat64() * 1e6}[rng.Intn(6)])
		},
		"wide":   func() uint64 { return rng.Uint64() },
		"repeat": func() uint64 { return []uint64{0, 1, 1 << 63, math.MaxUint64}[rng.Intn(4)] },
		"top":    func() uint64 { return uint64(rng.Intn(3)) << 60 },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 7, 64, radixSmallN - 1, radixSmallN, radixSmallN + 1, 2047, 2048, 2049, 20_000} {
			for _, shuffled := range []bool{false, true} {
				a := make([]SortKey, n)
				for i := range a {
					a[i] = SortKey{Key: gen(), ID: int32(i)}
				}
				if shuffled {
					rng.Shuffle(n, func(i, j int) { a[i].ID, a[j].ID = a[j].ID, a[i].ID })
				}
				want := slices.Clone(a)
				slices.SortStableFunc(want, func(x, y SortKey) int {
					switch {
					case x.Key < y.Key:
						return -1
					case x.Key > y.Key:
						return 1
					}
					return 0
				})
				if got := RadixSort(a, make([]SortKey, n)); !slices.Equal(got, want) {
					t.Fatalf("%s n=%d shuffled=%v: RadixSort differs from the stable sort", name, n, shuffled)
				}
			}
		}
	}
}

// BenchmarkRadixSort times both digit widths around RadixSort's cutoff
// (radixSmallN) on coordinates through RankKey.
func BenchmarkRadixSort(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		keys := make([]SortKey, n)
		for i := range keys {
			keys[i] = SortKey{Key: RankKey(rng.Float64()), ID: int32(i)}
		}
		a, spare := make([]SortKey, n), make([]SortKey, n)
		for _, w := range []struct {
			name string
			sort func(a, b []SortKey) []SortKey
		}{{"bits=8", radixSort8}, {"bits=11", radixSort11}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, w.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(a, keys)
					w.sort(a, spare)
				}
			})
		}
	}
}
