package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

// TestKwTable holds the keyword table to its contract: dense ids in the
// order keywords are first added, unchanged as the table grows past its
// first size, for every value from 0 to math.MaxUint32 — an empty slot is
// marked apart from the keyword it would hold.
func TestKwTable(t *testing.T) {
	var tab kwTable
	if d := tab.add(math.MaxUint32); d != 0 {
		t.Fatalf("first keyword numbered %d", d)
	}
	if d := tab.add(0); d != 1 {
		t.Fatalf("keyword 0 numbered %d after 2^32-1", d)
	}
	want := []dataset.Keyword{math.MaxUint32, 0}
	seen := map[dataset.Keyword]int32{math.MaxUint32: 0, 0: 1}
	rng := rand.New(rand.NewSource(41))
	for range 20_000 {
		w := dataset.Keyword(rng.Intn(500))
		switch rng.Intn(3) {
		case 0:
			w = math.MaxUint32 - w
		case 1:
			w = dataset.Keyword(rng.Uint32())
		}
		d, ok := seen[w]
		if !ok {
			d = int32(len(want))
			seen[w] = d
			want = append(want, w)
		}
		if got := tab.add(w); got != d {
			t.Fatalf("keyword %d numbered %d, want %d", w, got, d)
		}
	}
	if len(tab.slots) <= kwTableSize || 2*len(want) > len(tab.slots) {
		t.Fatalf("%d slots for %d keywords: the table did not grow as it should", len(tab.slots), len(want))
	}
	if !slices.Equal(tab.words, want) {
		t.Fatal("dense ids do not name the keywords in the order they were added")
	}
}

// TestPostingsNumberByFirstOccurrence holds the keyword pass's postings to
// a sequential layout's even when the parts meet new keywords late in the
// input: dense ids numbered by first occurrence over the objects ascending —
// which fixes the root's tensor axes: a keyword large at the root has the
// axis of its place among the root's large keywords in that order — and each
// id's posting the ascending ranks of exactly the objects that carry it.
func TestPostingsNumberByFirstOccurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 3*parallelCutoff + 77
	objs := make([]dataset.Object, n)
	for i := range objs {
		// The vocabulary widens along the input, so every part brings
		// keywords no earlier part has; a few sit near 2^32.
		doc := []dataset.Keyword{dataset.Keyword(rng.Intn(4)), dataset.Keyword(rng.Intn(8 + i/64))}
		if rng.Intn(8) == 0 {
			doc = append(doc, math.MaxUint32-dataset.Keyword(rng.Intn(4)))
		}
		objs[i] = dataset.Object{Point: geom.Point{rng.Float64(), rng.Float64()}, Doc: doc}
	}
	ds := dataset.MustNew(objs)
	var first []dataset.Keyword
	met := map[dataset.Keyword]bool{}
	for i := range int32(n) {
		for _, w := range ds.Doc(i) {
			if !met[w] {
				met[w] = true
				first = append(first, w)
			}
		}
	}
	seq := make([]int32, n)
	for r, id := range rng.Perm(n) {
		seq[r] = int32(id)
	}
	lay := func(gate *parGate) (*builder, []run) {
		b := &builder{gate: gate, seq: seq, weight: make([]int32, n)}
		for i := range b.weight {
			b.weight[i] = ds.DocLen(int32(i))
		}
		roots, _, _ := b.postings(ds, iota32(n))
		return b, roots
	}
	seqB, seqRuns := lay(nil)
	parB, parRuns := lay(newParGate(4))
	if parB.gate.parts(n) < 2 {
		t.Fatal("the postings were written in one part")
	}
	if !slices.Equal(seqB.words, first) || !slices.Equal(parB.words, first) {
		t.Fatal("dense ids are not numbered by first occurrence")
	}
	if !slices.Equal(seqRuns, parRuns) || !slices.Equal(seqB.post, parB.post) {
		t.Fatal("postings written on several goroutines differ from the sequential ones")
	}
	var off int32
	for d, r := range parRuns {
		var want []int32
		for rank, id := range seq {
			if ds.Has(id, first[d]) {
				want = append(want, int32(rank))
			}
		}
		if r.w != int32(d) || r.off != off || !slices.Equal(parB.post[r.off:r.off+r.n], want) {
			t.Fatalf("keyword %d: run %+v holds %v, want ranks %v from %d", first[d], r, parB.post[r.off:r.off+r.n], want, off)
		}
		off += r.n
	}
	if int(off) != len(parB.post) {
		t.Fatalf("runs cover %d postings of %d", off, len(parB.post))
	}

	ix, err := BuildORPKW(ds, 2, WithParallelism(4), WithoutObs())
	if err != nil {
		t.Fatal(err)
	}
	axis := int32(0)
	for _, w := range first {
		if li, large, _ := ix.fw.rootLookup(w); large {
			if li != axis {
				t.Fatalf("keyword %d is root tensor axis %d, want %d", w, li, axis)
			}
			axis++
		}
	}
	if axis < 2 {
		t.Fatalf("%d keywords large at the root: the fixture pins no axis order", axis)
	}
}
