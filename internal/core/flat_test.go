package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"kwsc/internal/dataset"
	"kwsc/internal/workload"
)

// sameIDsAndStats asserts two queries that must agree exactly did: same ids
// in the same order, same stats, same error class.
func sameIDsAndStats(t *testing.T, label string, gotIDs, wantIDs []int32, gotSt, wantSt QueryStats, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error mismatch: got %v, want %v", label, gotErr, wantErr)
	}
	if !slices.Equal(gotIDs, wantIDs) {
		t.Fatalf("%s: ids differ:\ngot:  %v\nwant: %v", label, gotIDs, wantIDs)
	}
	if gotSt != wantSt {
		t.Fatalf("%s: stats differ:\ngot:  %+v\nwant: %+v", label, gotSt, wantSt)
	}
}

func randWs(rng *rand.Rand, k, vocab int) []dataset.Keyword {
	ws := make([]dataset.Keyword, 0, k)
	seen := map[dataset.Keyword]bool{}
	for len(ws) < k {
		w := dataset.Keyword(1 + rng.Intn(vocab))
		if !seen[w] {
			seen[w] = true
			ws = append(ws, w)
		}
	}
	return ws
}

// The space claim as a number: the seed-31 corpus audits at 47 416 words. It
// was 132 476 while every object carried a document hash table; membership
// now probes the sorted document, so the audit has no such term to grow back.
// It was 67 252 before the audit counted the directories that make rank
// conversion and the root's keyword lookups O(1) expected: 2 050 words for
// the two rank-space dimensions, one int32 per 4 coordinates, and 14 for the
// root's keyword runs. It was 69 316 while queries converted to rank space:
// the 26 626 words of the rank tables and their directories went, and each
// of the 2 363 kd nodes now counts its box, 4 words, where it counted a
// 2-word cell interface (+4 726).
func TestFlatSpaceSmaller(t *testing.T) {
	const pinWords, hashSetWords = 47_416, 132_476
	ds := workload.Gen(workload.Config{Seed: 31, Objects: 1 << 13, Dim: 2, Vocab: 100, DocLen: 6})
	ix, err := BuildORPKW(ds, 2, WithoutObs())
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Space().TotalWords(64); got > pinWords {
		t.Fatalf("index audits at %d words, pinned at %d (%d with per-object hash sets)", got, pinWords, hashSetWords)
	}
}

// A deadline policy is checked per node visit. Uses an already-expired
// deadline so the outcome is deterministic: the query stops immediately.
func TestFlatPolicyDeadline(t *testing.T) {
	ds := workload.Gen(workload.Config{Seed: 41, Objects: 2000, Dim: 2, Vocab: 40, DocLen: 5})
	fl, err := BuildORPKW(ds, 2, WithoutObs())
	if err != nil {
		t.Fatal(err)
	}
	opts := QueryOpts{Policy: ExecPolicy{Deadline: time.Now().Add(-time.Second)}}
	_, st, err := fl.CollectInto(workload.RandRect(rand.New(rand.NewSource(42)), 2, 0.5), []dataset.Keyword{1, 2}, opts, nil)
	if !errors.Is(err, ErrDeadline) || !st.Truncated {
		t.Fatalf("expected deadline stop, got err=%v st=%+v", err, st)
	}
}

// The root's keyword lookups search inside the span a directory leaves; they
// must find exactly what a scan of the root's runs finds (a keyword large at
// the root has no list there), for keyword ids
// spread sparsely over uint32 with runs at both ends, and for probes beside
// every stored id.
func TestRootKeywordLookupMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	var heavy, light []dataset.Keyword
	for i := 0; i < 20; i++ {
		heavy = append(heavy, dataset.Keyword(i), math.MaxUint32-dataset.Keyword(i))
		light = append(light, dataset.Keyword(20+i), math.MaxUint32-20-dataset.Keyword(i))
	}
	for len(light) < 400 {
		light = append(light, dataset.Keyword(rng.Uint32()))
	}
	objs := make([]dataset.Object, 4000)
	for i := range objs {
		objs[i] = dataset.Object{
			Point: []float64{rng.Float64(), rng.Float64()},
			Doc:   []dataset.Keyword{heavy[rng.Intn(len(heavy))], heavy[rng.Intn(len(heavy))], light[rng.Intn(len(light))], light[rng.Intn(len(light))]},
		}
	}
	ix, err := BuildORPKW(dataset.MustNew(objs), 2, WithoutObs())
	if err != nil {
		t.Fatal(err)
	}
	f := ix.fw
	large := f.largeKeys[f.largeStart[0]:f.largeStart[1]]
	mat := f.matKeys[f.matStart[0]:f.matStart[1]]
	if f.rootLarge.Words() == 0 || f.rootMat.Words() == 0 {
		t.Fatalf("root runs of %d large and %d materialized keywords, directories %d and %d words: the test is vacuous",
			len(large), len(mat), f.rootLarge.Words(), f.rootMat.Words())
	}
	probes := []dataset.Keyword{0, 1, math.MaxUint32 - 1, math.MaxUint32}
	for _, w := range append(slices.Clone(large), mat...) {
		probes = append(probes, w-1, w, w+1)
	}
	for _, w := range probes {
		li, ok, mi := f.rootLookup(w)
		if i := slices.Index(large, w); ok != (i >= 0) || ok && li != f.largeIdx[int(f.largeStart[0])+i] {
			t.Fatalf("rootLookup(%d) = %d, large %v; the large run holds it at %d", w, li, ok, i)
		}
		if i := slices.Index(mat, w); ok && mi != -1 || !ok && (i < 0 && mi != -1 || i >= 0 && mi != f.matStart[0]+int32(i)) {
			t.Fatalf("rootLookup(%d) = list %d; the materialized run holds it at %d", w, mi, i)
		}
	}
}
