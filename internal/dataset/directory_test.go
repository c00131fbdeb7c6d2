package dataset

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"kwsc/internal/geom"
)

// spanHolds checks Directory.Span's contract for v over the ascending column
// s: every position before the span holds a value below v, every position
// from its end on a value above v.
func spanHolds[T ~float64 | ~uint32](t testing.TB, s []T, d *Directory, v float64) {
	t.Helper()
	from, to := d.Span(v, len(s))
	if from < 0 || from > to || to > len(s) {
		t.Fatalf("Span(%v) = [%d, %d) outside a column of %d", v, from, to, len(s))
	}
	if from > 0 && !(float64(s[from-1]) < v) {
		t.Fatalf("Span(%v) starts at %d, but position %d holds %v", v, from, from-1, s[from-1])
	}
	if to < len(s) && !(float64(s[to]) > v) {
		t.Fatalf("Span(%v) ends at %d, which holds %v", v, to, s[to])
	}
}

// refRank is the definition ToRankRectInto implements, by linear scan: the
// first rank whose coordinate is >= lo and the last whose coordinate is <= hi.
func refRank(s []float64, lo, hi float64) (lr, hr int) {
	for lr < len(s) && s[lr] < lo {
		lr++
	}
	hr = -1
	for hr+1 < len(s) && s[hr+1] <= hi {
		hr++
	}
	return lr, hr
}

// adversarialColumns are the coordinate columns the directory's bucket
// function must stay monotone over.
func adversarialColumns(rng *rand.Rand) map[string][]float64 {
	inf := math.Inf(1)
	sub := math.SmallestNonzeroFloat64
	cols := map[string][]float64{
		"one value":    {},
		"below dir":    {3, 1, 2, 2, 5, 8, 13, 0, 1},
		"signed zeros": {},
		"subnormals":   {},
		"infinities":   {-inf, -inf, inf, inf, inf},
		"magnitudes":   {},
		"ties":         {},
		"uniform":      {},
		"only two":     {},
	}
	for i := 0; i < 64; i++ {
		z := 0.0
		if i%2 == 0 {
			z = math.Copysign(0, -1)
		}
		cols["signed zeros"] = append(cols["signed zeros"], z, float64(i%5)-2)
		cols["subnormals"] = append(cols["subnormals"], sub*float64(rng.Intn(50)), -sub*float64(rng.Intn(3)))
		cols["magnitudes"] = append(cols["magnitudes"], math.Copysign(math.Pow(10, float64(rng.Intn(601)-300)), rng.Float64()-0.5))
		cols["one value"] = append(cols["one value"], 0.25)
		cols["ties"] = append(cols["ties"], float64(rng.Intn(6)))
		cols["uniform"] = append(cols["uniform"], rng.Float64())
		cols["infinities"] = append(cols["infinities"], rng.NormFloat64()*1e6)
		cols["only two"] = append(cols["only two"], float64(i%2)*math.MaxFloat64-float64((i+1)%2)*math.MaxFloat64)
	}
	cols["infinities"] = append(cols["infinities"], -inf, inf)
	return cols
}

// probes are the query bounds a column is searched for: every stored value,
// its neighbours on both sides, the extremes and both zeros.
func probes(s []float64) []float64 {
	inf := math.Inf(1)
	out := []float64{-inf, inf, 0, math.Copysign(0, -1), -math.MaxFloat64, math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, v := range s {
		out = append(out, v, math.Nextafter(v, inf), math.Nextafter(v, -inf))
	}
	return out
}

// ToRankRectInto agrees with the search definition over columns built to
// break a bucket function: ties, ±Inf at both ends, -0 beside +0,
// subnormals, magnitudes from 1e-300 to 1e300, a single distinct value, a
// column below the directory threshold, and bounds one ulp either side of
// every stored value.
func TestRankDirectoryMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, col := range adversarialColumns(rng) {
		t.Run(name, func(t *testing.T) {
			objs := make([]Object, len(col))
			for i, v := range col {
				objs[i] = Object{Point: geom.Point{v}, Doc: []Keyword{0}}
			}
			rs := NewRankSpace(MustNew(objs))
			s := rs.sorted[0]
			// No directory below the threshold, nor over values that spread
			// too little to scale (subnormals) or not at all (one value).
			if spread := name != "one value" && name != "subnormals" && name != "below dir"; spread != (rs.dirs[0].first != nil) {
				t.Fatalf("a column of %d values has a directory: %v", len(s), rs.dirs[0].first != nil)
			}
			ps := probes(s)
			for _, v := range ps {
				spanHolds(t, s, &rs.dirs[0], v)
			}
			dst := &geom.Rect{Lo: make([]float64, 1), Hi: make([]float64, 1)}
			for i := 0; i < 4000; i++ {
				lo, hi := ps[rng.Intn(len(ps))], ps[rng.Intn(len(ps))]
				if lo > hi {
					lo, hi = hi, lo
				}
				lr, hr := refRank(s, lo, hi)
				ok := rs.ToRankRectInto(&geom.Rect{Lo: []float64{lo}, Hi: []float64{hi}}, dst)
				if ok != (lr <= hr) || ok && (dst.Lo[0] != float64(lr) || dst.Hi[0] != float64(hr)) {
					t.Fatalf("[%v, %v]: got ok=%v %v, want ranks [%d, %d]", lo, hi, ok, dst, lr, hr)
				}
			}
		})
	}
}

// A keyword run converts to float64 exactly, so the directory over the
// sparse ids at both ends of uint32 narrows every lookup correctly.
func TestKeywordDirectorySpans(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys := []Keyword{0, 1, 2, 3, math.MaxUint32 - 2, math.MaxUint32 - 1, math.MaxUint32}
	for len(keys) < 200 {
		keys = append(keys, Keyword(rng.Uint32()))
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	d := NewDirectory(keys)
	if d.first == nil {
		t.Fatal("no directory over 200 keywords")
	}
	for _, k := range keys {
		for _, v := range []Keyword{k - 1, k, k + 1} {
			spanHolds(t, keys, &d, float64(v))
		}
	}
}

// FuzzRankDirectory holds Span's contract and the rank conversion to their
// definitions over fuzzed columns and bounds: the bytes are read as float64
// bit patterns, NaN dropped.
func FuzzRankDirectory(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef01234567"), uint64(0), uint64(1<<63))
	f.Add(make([]byte, 8*20), math.Float64bits(math.Inf(-1)), math.Float64bits(math.Inf(1)))
	f.Fuzz(func(t *testing.T, raw []byte, lob, hib uint64) {
		var col []float64
		for i := 0; i+8 <= len(raw) && len(col) < 512; i += 8 {
			v := math.Float64frombits(uint64(raw[i]) | uint64(raw[i+1])<<8 | uint64(raw[i+2])<<16 | uint64(raw[i+3])<<24 |
				uint64(raw[i+4])<<32 | uint64(raw[i+5])<<40 | uint64(raw[i+6])<<48 | uint64(raw[i+7])<<56)
			if !math.IsNaN(v) {
				col = append(col, v)
			}
		}
		lo, hi := math.Float64frombits(lob), math.Float64frombits(hib)
		if len(col) == 0 || math.IsNaN(lo) || math.IsNaN(hi) {
			return
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		objs := make([]Object, len(col))
		for i, v := range col {
			objs[i] = Object{Point: geom.Point{v}, Doc: []Keyword{0}}
		}
		rs := NewRankSpace(MustNew(objs))
		s := rs.sorted[0]
		for _, v := range append([]float64{lo, hi}, col...) {
			spanHolds(t, s, &rs.dirs[0], v)
		}
		lr, hr := refRank(s, lo, hi)
		dst := &geom.Rect{Lo: make([]float64, 1), Hi: make([]float64, 1)}
		ok := rs.ToRankRectInto(&geom.Rect{Lo: []float64{lo}, Hi: []float64{hi}}, dst)
		if ok != (lr <= hr) || ok && (dst.Lo[0] != float64(lr) || dst.Hi[0] != float64(hr)) {
			t.Fatalf("[%v, %v]: got ok=%v %v, want ranks [%d, %d]", lo, hi, ok, dst, lr, hr)
		}
	})
}
