package dataset

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// spanHolds checks Directory.Span's contract for w over the ascending column
// s: every position before the span holds a value below w, every position
// from its end on a value above w.
func spanHolds(t testing.TB, s []Keyword, d *Directory, w Keyword) {
	t.Helper()
	from, to := d.Span(w, len(s))
	if from < 0 || from > to || to > len(s) {
		t.Fatalf("Span(%d) = [%d, %d) outside a column of %d", w, from, to, len(s))
	}
	if from > 0 && !(s[from-1] < w) {
		t.Fatalf("Span(%d) starts at %d, but position %d holds %d", w, from, from-1, s[from-1])
	}
	if to < len(s) && !(s[to] > w) {
		t.Fatalf("Span(%d) ends at %d, which holds %d", w, to, s[to])
	}
}

// keywordColumns are the ascending keyword columns the directory's bucket
// function must stay monotone over.
func keywordColumns(rng *rand.Rand) map[string][]Keyword {
	cols := map[string][]Keyword{
		"one value":  {},
		"below dir":  {0, 1, 1, 2, 3, 5, 8, 13, math.MaxUint32},
		"ties":       {},
		"uniform":    {},
		"only two":   {},
		"magnitudes": {},
	}
	for i := 0; i < 64; i++ {
		cols["one value"] = append(cols["one value"], 7)
		cols["ties"] = append(cols["ties"], Keyword(rng.Intn(6)))
		cols["uniform"] = append(cols["uniform"], Keyword(rng.Uint32()))
		cols["only two"] = append(cols["only two"], Keyword(i%2)*math.MaxUint32)
		cols["magnitudes"] = append(cols["magnitudes"], Keyword(1)<<rng.Intn(32)+Keyword(rng.Intn(3)))
	}
	for _, c := range cols {
		slices.Sort(c)
	}
	return cols
}

// The directory over a keyword column narrows every lookup correctly — over
// ties, a single value, a column of only 0 and MaxUint32, keywords of every
// magnitude, a column below the directory threshold, and lookups for every
// stored key and its neighbours either side.
func TestKeywordDirectoryMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, col := range keywordColumns(rng) {
		t.Run(name, func(t *testing.T) {
			d := NewDirectory(col)
			if spread := name != "one value" && name != "below dir"; spread != (d.first != nil) {
				t.Fatalf("a column of %d keywords has a directory: %v", len(col), d.first != nil)
			}
			for _, k := range append(col, 0, math.MaxUint32) {
				for _, w := range []Keyword{k - 1, k, k + 1} {
					spanHolds(t, col, &d, w)
				}
			}
		})
	}
}

// The directory over sparse ids at both ends of uint32 narrows every lookup
// correctly.
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
			spanHolds(t, keys, &d, v)
		}
	}
}

// FuzzKeywordDirectory holds Span's contract over fuzzed keyword columns:
// the bytes are read as uint32 keywords and sorted, and every stored value
// and the probe w are looked up.
func FuzzKeywordDirectory(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"), uint32(0))
	f.Add(make([]byte, 4*20), uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, raw []byte, w uint32) {
		var col []Keyword
		for i := 0; i+4 <= len(raw) && len(col) < 512; i += 4 {
			col = append(col, Keyword(raw[i])|Keyword(raw[i+1])<<8|Keyword(raw[i+2])<<16|Keyword(raw[i+3])<<24)
		}
		slices.Sort(col)
		d := NewDirectory(col)
		for _, v := range append(col, Keyword(w)) {
			spanHolds(t, col, &d, v)
		}
	})
}
