package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"kwsc/internal/bitpack"
	"kwsc/internal/codec"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/obs"
	"kwsc/internal/pager"
)

// snapshotOfDocs builds a snapshot whose entry i carries docs[i] (canonical,
// non-empty), a random point, and a gappy handle increasing with i — so
// ascending handles are ascending entry order.
func snapshotOfDocs(k int, docs [][]dataset.Keyword, seed int64) *Snapshot {
	rng := rand.New(rand.NewSource(seed))
	s := &Snapshot{K: k, Dim: 2, LastSeq: uint64(len(docs))}
	objs := make([]dataset.Object, len(docs))
	h := int64(-1)
	for i, doc := range docs {
		h += 1 + int64(rng.Intn(3))
		s.Handles = append(s.Handles, h)
		objs[i] = dataset.Object{Point: geom.Point{rng.Float64(), rng.Float64()}, Doc: doc}
	}
	s.Objs = dataset.MustNew(objs)
	s.NextHandle = h + 1
	return s
}

// Posting-list shapes of the differential corpus, by keyword. Entry ids equal
// positions in list 1, so "id%128" names positions on its block boundaries.
const diffEntries = 1500

var diffKeywords = map[dataset.Keyword]func(i int) bool{
	1: func(i int) bool { return true },                                     // every entry: 12 blocks
	2: func(i int) bool { return i%3 == 0 },                                 // 500 ids, 4 blocks
	3: func(i int) bool { return i < bitpack.BlockSize-1 },                  // 127 ids: one block, short by one
	4: func(i int) bool { return i >= 1000 && i < 1000+bitpack.BlockSize },  // 128 ids: one full block
	5: func(i int) bool { return i%11 == 5 && i <= 5+11*bitpack.BlockSize }, // 129 ids: a full block and one
	6: func(i int) bool { return i == diffEntries-1 },                       // a single id, the last entry
	7: func(i int) bool { m := i % bitpack.BlockSize; return m == 0 || m == bitpack.BlockSize-1 },
	8: func(i int) bool { return (i*2654435761)%97 < 9 }, // scattered
}

const diffAbsent = dataset.Keyword(999)

func diffDocs() [][]dataset.Keyword {
	docs := make([][]dataset.Keyword, diffEntries)
	for i := range docs {
		for w := dataset.Keyword(1); int(w) <= len(diffKeywords); w++ {
			if diffKeywords[w](i) {
				docs[i] = append(docs[i], w)
			}
		}
	}
	return docs
}

// keywordTuples enumerates every k-subset of the corpus keywords plus the
// absent one, in ascending order and — every other tuple — reversed, so the
// length ordering inside Query is exercised from both sides.
func keywordTuples(k int) [][]dataset.Keyword {
	pool := []dataset.Keyword{1, 2, 3, 4, 5, 6, 7, 8, diffAbsent}
	var out [][]dataset.Keyword
	var rec func(start int, cur []dataset.Keyword)
	rec = func(start int, cur []dataset.Keyword) {
		if len(cur) == k {
			ws := slices.Clone(cur)
			if len(out)%2 == 1 {
				slices.Reverse(ws)
			}
			out = append(out, ws)
			return
		}
		for i := start; i < len(pool); i++ {
			rec(i+1, append(cur, pool[i]))
		}
	}
	rec(0, nil)
	return out
}

// reportOrder runs a query and returns the handles in the order reported:
// rank order — compare with an oracle through sortedHandles.
func reportOrder(b *PagedBase, q *geom.Rect, ws []dataset.Keyword, opts QueryOpts) ([]int64, QueryStats, error) {
	var got []int64
	st, err := b.Query(q, ws, opts, func(h int64, _ *dataset.Object) bool { got = append(got, h); return true })
	return got, st, err
}

// sortedHandles sorts got in place and returns it.
func sortedHandles(got []int64) []int64 {
	slices.Sort(got)
	return got
}

// TestPagedBaseIntersectionDifferential checks the leapfrog intersection
// against the brute-force oracle for k = 2, 3, 4 in both base modes, over
// lists of every awkward shape: one block against many, lengths 127/128/129,
// a single id, ids on block boundaries, and an absent keyword. (The shapes
// are laid out over entry indexes; the file stores ranks, which scatters them
// over the blocks differently for every seed.) The answer must be the
// oracle's set, duplicate-free.
func TestPagedBaseIntersectionDifferential(t *testing.T) {
	docs := diffDocs()
	for _, k := range []int{2, 3, 4} {
		snap := snapshotOfDocs(k, docs, int64(100+k))
		for mode, b := range openBothBaseModes(t, snap) {
			rng := rand.New(rand.NewSource(int64(k)))
			for _, ws := range keywordTuples(k) {
				for _, q := range []*geom.Rect{geom.UniverseRect(2), randRect(rng, 2), randRect(rng, 2)} {
					got, st, err := reportOrder(b, q, ws, QueryOpts{})
					if err != nil {
						t.Fatalf("k=%d %s ws=%v: %v", k, mode, ws, err)
					}
					if want := snapOracle(snap, q, ws); !slices.Equal(sortedHandles(got), want) {
						t.Fatalf("k=%d %s ws=%v q=%v: got %v, want %v", k, mode, ws, q, got, want)
					}
					if st.Reported != len(got) {
						t.Fatalf("k=%d %s ws=%v: Reported=%d for %d results", k, mode, ws, st.Reported, len(got))
					}
				}
			}
			b.Close()
		}
	}
}

// TestPagedBaseStopsReturnPrefix: every way of stopping a query early —
// Limit, the policy's node budget, a deadline — reports a prefix of
// the unrestricted answer, in the same order.
func TestPagedBaseStopsReturnPrefix(t *testing.T) {
	snap := snapshotOfDocs(2, diffDocs(), 7)
	ws := []dataset.Keyword{2, 1}
	for mode, b := range openBothBaseModes(t, snap) {
		full, _, err := reportOrder(b, geom.UniverseRect(2), ws, QueryOpts{})
		if err != nil || len(full) != 500 {
			t.Fatalf("%s: unrestricted answer has %d results (err=%v), want 500", mode, len(full), err)
		}
		for _, c := range []struct {
			name    string
			opts    QueryOpts
			wantErr error
			wantLen int // -1: any proper prefix
		}{
			{"limit", QueryOpts{Limit: 7}, nil, 7},
			{"node-budget", QueryOpts{Policy: ExecPolicy{NodeBudget: 50}}, ErrBudget, 50},
			{"deadline", QueryOpts{Policy: ExecPolicy{Deadline: time.Now().Add(-time.Second)}}, ErrDeadline, -1},
		} {
			got, st, err := reportOrder(b, geom.UniverseRect(2), ws, c.opts)
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("%s %s: err=%v, want %v", mode, c.name, err, c.wantErr)
			}
			if len(got) >= len(full) || !slices.Equal(got, full[:len(got)]) {
				t.Fatalf("%s %s: %d results are not a proper prefix of the full answer", mode, c.name, len(got))
			}
			if c.wantLen >= 0 && len(got) != c.wantLen {
				t.Fatalf("%s %s: %d results, want %d", mode, c.name, len(got), c.wantLen)
			}
			if !st.Truncated {
				t.Fatalf("%s %s: early stop not flagged Truncated", mode, c.name)
			}
		}
		b.Close()
	}
}

// TestPagedBaseConcurrentQueriesTinyPool runs the same pread base from 8
// goroutines over a pool of two pages — far fewer than the readers pin
// between them — so recycled readers, eviction and pool overshoot are all in
// play (and under `make race`, checked by the detector).
func TestPagedBaseConcurrentQueriesTinyPool(t *testing.T) {
	snap := snapshotOfDocs(3, diffDocs(), 11)
	path := writePagedCheckpoint(t, t.TempDir(), "tiny.ckpt", snap)
	b, err := OpenPagedBase(path, PagedBaseOptions{NoMmap: true, CapPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	tuples := keywordTuples(3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 60; i++ {
				ws, q := tuples[rng.Intn(len(tuples))], randRect(rng, 2)
				got, _, err := reportOrder(b, q, ws, QueryOpts{})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if want := snapOracle(snap, q, ws); !slices.Equal(sortedHandles(got), want) {
					t.Errorf("goroutine %d ws=%v: got %v, want %v", g, ws, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// pagerPins runs fn and returns how many page pins (hits and misses) it made.
func pagerPins(fn func()) int64 {
	counters, _, _ := registryDelta(fn)
	return counters["kwsc_pager_pin_hits_total"] + counters["kwsc_pager_pin_misses_total"]
}

// TestPagedBaseDisjointListsTouchOnlyPostings pins the I/O shape of the
// intersection so it cannot slide back to candidate-at-a-time, nor to reading
// outside the runs the rectangle keeps. Two keywords never share an entry
// and split every stored leaf between them. Over the universe rectangle — one run, every
// posting block read — the query costs no more pins than the pages the two
// lists span, which leaves none for the points, handles or document
// sections. Over a small rectangle it takes candidates from the runs the
// stored tree's descent keeps only.
func TestPagedBaseDisjointListsTouchOnlyPostings(t *testing.T) {
	docs := make([][]dataset.Keyword, 20_000)
	for i := range docs {
		docs[i] = []dataset.Keyword{dataset.Keyword(1 + i%2), 3}
	}
	snap := snapshotOfDocs(2, docs, 13)
	path := writePagedCheckpoint(t, t.TempDir(), "disjoint.ckpt", snap)
	b, err := OpenPagedBase(path, PagedBaseOptions{NoMmap: true, CapPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ws := []dataset.Keyword{1, 2}
	var postingPages int64
	for _, w := range ws {
		l, ok := b.listFor(w)
		if !ok {
			t.Fatalf("keyword %d has no posting list", w)
		}
		first, last := b.blocks[l.Block], b.blocks[l.Block+l.NumBlocks-1]
		lo, hi := 8*int64(first.Off), 8*(int64(last.Off)+int64(last.Words()))-1
		postingPages += hi/pager.PageSize - lo/pager.PageSize + 1
	}
	disjoint := func(q *geom.Rect) (st QueryStats, pins int64) {
		pins = pagerPins(func() {
			var got []int64
			got, st, err = reportOrder(b, q, ws, QueryOpts{})
			if err != nil || len(got) != 0 {
				t.Fatalf("disjoint keywords over %v: %d results, err=%v", q, len(got), err)
			}
		})
		return st, pins
	}
	// Entries of the two keywords alternate, and a leaf of the build's tree
	// lists its entries ascending, so the lists interleave in rank space too:
	// a candidate every few ranks.
	all, allPins := disjoint(geom.UniverseRect(2))
	if all.Ops < int64(len(docs)/8) {
		t.Fatalf("only %d candidates examined: the lists were meant to interleave", all.Ops)
	}
	if all.NodesVisited != 1 || all.CoveredNodes != 1 {
		t.Fatalf("the universe rectangle visited %d nodes (%d covered), want the root alone", all.NodesVisited, all.CoveredNodes)
	}
	if allPins == 0 || allPins > postingPages {
		t.Fatalf("%d pins for posting lists spanning %d pages: the scan left the posting section", allPins, postingPages)
	}

	// A side-0.2 rectangle holds 4% of the points; the runs its descent keeps
	// hold a little more, and the candidates are at most their ranks.
	q := &geom.Rect{Lo: []float64{0.4, 0.4}, Hi: []float64{0.6, 0.6}}
	r, err := b.getReader()
	if err != nil {
		t.Fatal(err)
	}
	var cover QueryStats
	r.runs = r.runs[:0]
	r.cover(&cover, q)
	ranks := int64(0)
	for _, run := range r.runs {
		ranks += int64(run.hi - run.lo)
	}
	b.putReader(r)
	small, smallPins := disjoint(q)
	if small.NodesVisited != cover.NodesVisited || small.NodesVisited < 3 || small.CrossingNodes == 0 {
		t.Fatalf("descent visited %d nodes (%d crossing), the cover alone %d", small.NodesVisited, small.CrossingNodes, cover.NodesVisited)
	}
	if ranks > int64(len(docs))/4 {
		t.Fatalf("the rectangle's runs hold %d of %d ranks: the kd order does not localise", ranks, len(docs))
	}
	if small.Ops == 0 || small.Ops > ranks {
		t.Fatalf("%d candidates for %d ranks in the rectangle's runs", small.Ops, ranks)
	}
	// (Both lists fit a few pages here; TestPagedBaseRectanglePrunesWork holds
	// the pins of a corpus whose lists do not to half.)
	if smallPins == 0 || smallPins > allPins {
		t.Fatalf("%d pins inside the rectangle against %d for every block", smallPins, allPins)
	}

	// The counter does see the other sections when a query has survivors.
	if pins := pagerPins(func() {
		if got, _, err := reportOrder(b, geom.UniverseRect(2), []dataset.Keyword{1, 3}, QueryOpts{Limit: 5}); err != nil || len(got) != 5 {
			t.Fatalf("overlapping keywords: %d results, err=%v", len(got), err)
		}
	}); pins < 4 {
		t.Fatalf("a query with results made only %d pins", pins)
	}
}

// TestPagedBasePostingReadFailure: a posting page that fails its checksum is
// a payload read that fails under a cursor. The cursor ends its list there,
// the query returns the read's error, and whatever it reported before is a
// true match — the failed read invents none.
func TestPagedBasePostingReadFailure(t *testing.T) {
	snap := snapshotOfDocs(2, diffDocs(), 19)
	path := writePagedCheckpoint(t, t.TempDir(), "postings.ckpt", snap)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := codec.ParseContainer(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	off, n, _ := c.Section(codec.SecPostWords)
	raw[off+n/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := OpenPagedBase(path, PagedBaseOptions{NoMmap: true, CapPages: 8})
	if err != nil {
		t.Fatalf("pread open must not read the posting payload: %v", err)
	}
	defer b.Close()
	failed := 0
	for _, ws := range keywordTuples(2) {
		q := geom.UniverseRect(2)
		got, _, err := reportOrder(b, q, ws, QueryOpts{})
		want := snapOracle(snap, q, ws)
		for _, h := range got {
			if _, ok := slices.BinarySearch(want, h); !ok {
				t.Fatalf("ws=%v: reported handle %d, not a match", ws, h)
			}
		}
		switch {
		case errors.Is(err, pager.ErrChecksum):
			failed++
		case err != nil:
			t.Fatalf("ws=%v: %v, want nil or ErrChecksum", ws, err)
		}
	}
	if failed == 0 {
		t.Fatal("no query read the damaged posting page")
	}
}

// TestPagedBaseHasPinsThreePages: with the resident fence a pread-mode
// handle lookup pins at most three pages — the one page of a multi-page
// handle column that can hold the handle, its entry's rank and the row that
// confirms it — for handles present, absent, and on either side of every
// page boundary. And the confirmation is real: a handle column re-sealed to
// name a handle no row holds answers false for it, in both modes, and only
// hides the handle it replaced.
func TestPagedBaseHasPinsThreePages(t *testing.T) {
	docs := make([][]dataset.Keyword, 3*handlesPerPage+17)
	for i := range docs {
		docs[i] = []dataset.Keyword{1}
	}
	snap := snapshotOfDocs(2, docs, 17)
	dir := t.TempDir()
	path := writePagedCheckpoint(t, dir, "has.ckpt", snap)
	b, err := OpenPagedBase(path, PagedBaseOptions{NoMmap: true, CapPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if len(b.handleFence) != 4 {
		t.Fatalf("fence has %d entries for a 4-page handle column", len(b.handleFence))
	}
	present := make(map[int64]bool, len(snap.Handles))
	for _, h := range snap.Handles {
		present[h] = true
	}
	for h := int64(-2); h < snap.NextHandle+2; h++ {
		var has bool
		pins := pagerPins(func() { has = b.Has(h) })
		if has != present[h] {
			t.Fatalf("Has(%d) = %v, want %v", h, has, present[h])
		}
		if pins > 3 {
			t.Fatalf("Has(%d) pinned %d pages", h, pins)
		}
	}

	// Entry e's handle becomes one no row holds, the column still ascending.
	e := 2 * handlesPerPage
	for snap.Handles[e]-snap.Handles[e-1] < 2 {
		e++
	}
	forged, hidden := snap.Handles[e-1]+1, snap.Handles[e]
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lie := reseal(t, raw, nil, func(id uint32, data []byte) []byte {
		if id != codec.SecHandles {
			return nil
		}
		out := slices.Clone(data)
		copy(out[8*e:], codec.Put([]int64{forged}))
		return out
	})
	for i, opts := range []PagedBaseOptions{{}, {NoMmap: true, CapPages: 4}} {
		p := filepath.Join(dir, fmt.Sprintf("lie-%d.ckpt", i))
		if err := os.WriteFile(p, lie, 0o644); err != nil {
			t.Fatal(err)
		}
		lb, err := OpenPagedBase(p, opts)
		if err != nil {
			t.Fatalf("%+v: the lie is structurally sound, open refused it: %v", opts, err)
		}
		if lb.Has(forged) || lb.Has(hidden) || !lb.Has(snap.Handles[e-1]) || !lb.Has(snap.Handles[e+1]) {
			t.Fatalf("%+v: Has(forged %d) = %v, Has(hidden %d) = %v, neighbours %v %v", opts,
				forged, lb.Has(forged), hidden, lb.Has(hidden), lb.Has(snap.Handles[e-1]), lb.Has(snap.Handles[e+1]))
		}
		if _, _, err := lb.entries(); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("%+v: Entries of a row whose handle is not its entry's: %v", opts, err)
		}
		lb.Close()
	}
}

// TestPagedBaseDroppedAfterQueriesIsFinalized: a base dropped without Close
// must still release its file once it has served queries, although the
// readers parked in its pool point back at it.
func TestPagedBaseDroppedAfterQueriesIsFinalized(t *testing.T) {
	snap := testCheckpointSnapshot(41, 200, 2)
	openFiles := func() int64 { return obs.Default().Snapshot().Gauges["kwsc_pager_open_files"] }
	before := openFiles()
	for mode, b := range openBothBaseModes(t, snap) {
		if _, _, err := reportOrder(b, geom.UniverseRect(2), []dataset.Keyword{0, 1}, QueryOpts{}); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); openFiles() != before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d files still open after the bases were dropped", openFiles()-before)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
