package main

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

func build1D(rng *rand.Rand, n, vocab int, denseFrac float64) *dataset.Dataset {
	objs := make([]dataset.Object, n)
	for i := range objs {
		var doc []dataset.Keyword
		// Keyword 0 and 1 are dense with probability denseFrac.
		for w := dataset.Keyword(0); w < 2; w++ {
			if rng.Float64() < denseFrac {
				doc = append(doc, w)
			}
		}
		doc = append(doc, 2+dataset.Keyword(rng.Intn(vocab-2)))
		objs[i] = dataset.Object{Point: geom.Point{rng.Float64()}, Doc: doc}
	}
	return dataset.MustNew(objs)
}

func brute1D(ds *dataset.Dataset, lo, hi float64, ws []dataset.Keyword) []int32 {
	var out []int32
	for i := 0; i < ds.Len(); i++ {
		id := int32(i)
		c := ds.Point(id)[0]
		if c >= lo && c <= hi && ds.HasAll(id, ws) {
			out = append(out, id)
		}
	}
	return out
}

func checkEqualIDs(t *testing.T, got, want []int32) {
	t.Helper()
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("element %d: %d != %d", i, got[i], want[i])
		}
	}
}

func TestRejectsHigherDimensions(t *testing.T) {
	ds := dataset.MustNew([]dataset.Object{{Point: geom.Point{1, 2}, Doc: []dataset.Keyword{0}}})
	if _, err := buildWordParallel1D(ds); err == nil {
		t.Fatal("2D dataset must be rejected")
	}
}

func TestDensePathMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := build1D(rng, 2000, 32, 0.5) // keywords 0,1 dense
	ix, err := buildWordParallel1D(ds)
	if err != nil {
		t.Fatal(err)
	}
	if ix.denseKeywords() == 0 {
		t.Fatal("expected dense keywords in this workload")
	}
	for trial := 0; trial < 50; trial++ {
		lo := rng.Float64() * 0.8
		hi := lo + rng.Float64()*0.2
		got, st, err := ix.collect(lo, hi, []dataset.Keyword{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if st.WordOps == 0 && len(got) > 0 {
			t.Fatal("dense query did not take the word-parallel path")
		}
		checkEqualIDs(t, got, brute1D(ds, lo, hi, []dataset.Keyword{0, 1}))
	}
}

func TestSparsePathMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := build1D(rng, 2000, 800, 0.3)
	ix, err := buildWordParallel1D(ds)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		lo := rng.Float64() * 0.8
		hi := lo + rng.Float64()*0.2
		// Rare keyword 2.. range: likely sparse.
		ws := []dataset.Keyword{0, 2 + dataset.Keyword(rng.Intn(700))}
		got, _, err := ix.collect(lo, hi, ws)
		if err != nil {
			t.Fatal(err)
		}
		checkEqualIDs(t, got, brute1D(ds, lo, hi, ws))
	}
}

func TestSingleKeyword(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := build1D(rng, 500, 16, 0.4)
	ix, err := buildWordParallel1D(ds)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.collect(0, 1, []dataset.Keyword{0})
	if err != nil {
		t.Fatal(err)
	}
	checkEqualIDs(t, got, brute1D(ds, 0, 1, []dataset.Keyword{0}))
}

func TestManyKeywords(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := build1D(rng, 1500, 8, 0.7)
	ix, err := buildWordParallel1D(ds)
	if err != nil {
		t.Fatal(err)
	}
	ws := []dataset.Keyword{0, 1, 2, 3}
	got, _, err := ix.collect(0.1, 0.9, ws)
	if err != nil {
		t.Fatal(err)
	}
	checkEqualIDs(t, got, brute1D(ds, 0.1, 0.9, ws))
}

func TestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ix, err := buildWordParallel1D(build1D(rng, 100, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.collect(0, 1, nil); err == nil {
		t.Fatal("empty keywords must error")
	}
	if _, _, err := ix.collect(0, 1, []dataset.Keyword{1, 1}); err == nil {
		t.Fatal("duplicates must error")
	}
}

func TestAbsentKeywordAndEmptyRange(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ix, err := buildWordParallel1D(build1D(rng, 100, 8, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.collect(0, 1, []dataset.Keyword{0, 9999})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("absent keyword produced results")
	}
	got, _, err = ix.collect(2, 3, []dataset.Keyword{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("out-of-range query produced results")
	}
}

func TestWordBoundaries(t *testing.T) {
	// Exactly 128 objects at integer coordinates: range cuts at word edges.
	objs := make([]dataset.Object, 128)
	for i := range objs {
		objs[i] = dataset.Object{Point: geom.Point{float64(i)}, Doc: []dataset.Keyword{0, 1}}
	}
	ds := dataset.MustNew(objs)
	ix, err := buildWordParallel1D(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]float64{{0, 127}, {0, 63}, {64, 127}, {63, 64}, {1, 126}, {0, 0}, {127, 127}} {
		got, _, err := ix.collect(r[0], r[1], []dataset.Keyword{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		want := int(r[1]-r[0]) + 1
		if len(got) != want {
			t.Fatalf("range [%v,%v]: got %d, want %d", r[0], r[1], len(got), want)
		}
	}
	// 200 objects with keyword 1 on every third: the AND leaves gaps.
	objs = make([]dataset.Object, 200)
	for i := range objs {
		objs[i] = dataset.Object{Point: geom.Point{float64(i)}, Doc: []dataset.Keyword{0, dataset.Keyword(1 + i%3)}}
	}
	ds = dataset.MustNew(objs)
	if ix, err = buildWordParallel1D(ds); err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.collect(10, 20, []dataset.Keyword{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	checkEqualIDs(t, got, brute1D(ds, 10, 20, []dataset.Keyword{0, 1}))
}

// Property: agrees with brute force on arbitrary random instances.
func TestAgainstBruteProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		n := 2 + rng.Intn(300)
		ds := build1D(rng, n, 4+rng.Intn(12), rng.Float64())
		ix, err := buildWordParallel1D(ds)
		if err != nil {
			return false
		}
		for q := 0; q < 5; q++ {
			lo := rng.Float64()
			hi := lo + rng.Float64()*0.5
			k := 1 + rng.Intn(3)
			seen := map[dataset.Keyword]bool{}
			var ws []dataset.Keyword
			for len(ws) < k {
				w := dataset.Keyword(rng.Intn(6))
				if !seen[w] {
					seen[w] = true
					ws = append(ws, w)
				}
			}
			got, _, err := ix.collect(lo, hi, ws)
			if err != nil {
				return false
			}
			want := brute1D(ds, lo, hi, ws)
			if len(got) != len(want) {
				return false
			}
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Word-parallel 1D bitmaps on dense keywords.
func BenchmarkExtWordParallel1D(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	objs := make([]dataset.Object, 1<<16)
	for i := range objs {
		doc := []dataset.Keyword{2 + dataset.Keyword(rng.Intn(62))}
		if rng.Float64() < 0.3 {
			doc = append(doc, 0)
		}
		if rng.Float64() < 0.3 {
			doc = append(doc, 1)
		}
		objs[i] = dataset.Object{Point: geom.Point{rng.Float64()}, Doc: doc}
	}
	ds, err := dataset.New(objs)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := buildWordParallel1D(ds)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Float64() * 0.8
		if _, _, err := ix.collect(lo, lo+0.1, []dataset.Keyword{0, 1}); err != nil {
			b.Fatal(err)
		}
	}
}
