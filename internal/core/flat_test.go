package core

import (
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

// The space claim as a number: the seed-31 corpus audits at 67 252 words. It
// was 132 476 while every object carried a document hash table; membership
// now probes the sorted document, so the audit has no such term to grow back.
func TestFlatSpaceSmaller(t *testing.T) {
	const pinWords, hashSetWords = 67_252, 132_476
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
	_, st, err := fl.Collect(workload.RandRect(rand.New(rand.NewSource(42)), 2, 0.5), []dataset.Keyword{1, 2}, opts)
	if err == nil || !st.DeadlineHit {
		t.Fatalf("expected deadline stop, got err=%v st=%+v", err, st)
	}
}
