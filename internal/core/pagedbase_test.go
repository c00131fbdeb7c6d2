package core

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"kwsc/internal/codec"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/pager"
)

// testCheckpointSnapshot builds a random snapshot with canonical documents
// and strictly increasing (gappy) handles.
func testCheckpointSnapshot(seed int64, n, dim int) *codec.Snapshot {
	rng := rand.New(rand.NewSource(seed))
	s := &codec.Snapshot{K: 2, Dim: dim, LastSeq: uint64(3 * n)}
	objs := make([]dataset.Object, n)
	h := int64(-1)
	for i := 0; i < n; i++ {
		h += 1 + int64(rng.Intn(3))
		doc := make([]dataset.Keyword, 1+rng.Intn(5))
		for j := range doc {
			doc[j] = dataset.Keyword(rng.Intn(12))
		}
		pt := make(geom.Point, dim)
		for j := range pt {
			pt[j] = rng.Float64()
		}
		s.Handles = append(s.Handles, h)
		objs[i] = dataset.Object{Point: pt, Doc: doc}
	}
	s.Objs = dataset.MustNew(objs)
	s.NextHandle = h + 1
	return s
}

// writePagedCheckpoint serializes snap as a KWCP2 container at dir/name.
func writePagedCheckpoint(t *testing.T, dir, name string, snap *codec.Snapshot) string {
	t.Helper()
	var buf bytes.Buffer
	if err := codec.WritePagedSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// snapOracle answers queries by brute force over the snapshot entries.
func snapOracle(snap *codec.Snapshot, q *geom.Rect, ws []dataset.Keyword) []int64 {
	var out []int64
	for _, id := range snap.Objs.Filter(q, ws) {
		out = append(out, snap.Handles[id])
	}
	return out
}

func collectBase(t *testing.T, b *PagedBase, q *geom.Rect, ws []dataset.Keyword, opts QueryOpts) ([]int64, QueryStats) {
	t.Helper()
	var got []int64
	st, err := b.Query(q, ws, opts, func(h int64, obj *dataset.Object) {
		if len(obj.Point) != b.Dim() || len(obj.Doc) == 0 {
			t.Fatalf("reported object malformed: %v", obj)
		}
		got = append(got, h)
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	return got, st
}

func randRect(rng *rand.Rand, dim int) *geom.Rect {
	q := &geom.Rect{Lo: make([]float64, dim), Hi: make([]float64, dim)}
	for j := 0; j < dim; j++ {
		a, b := rng.Float64(), rng.Float64()
		if a > b {
			a, b = b, a
		}
		q.Lo[j], q.Hi[j] = a, b
	}
	return q
}

func randKeywordPair(rng *rand.Rand) []dataset.Keyword {
	a := dataset.Keyword(rng.Intn(12))
	b := dataset.Keyword(rng.Intn(12))
	for b == a {
		b = dataset.Keyword(rng.Intn(12))
	}
	return []dataset.Keyword{a, b}
}

// openBothBaseModes opens the same snapshot bytes mapped and through the
// bounded pread pool (distinct files: the pager registry is a per-path
// singleton, so one path cannot be open in two modes at once).
func openBothBaseModes(t *testing.T, snap *codec.Snapshot) map[string]*PagedBase {
	t.Helper()
	dir := t.TempDir()
	modes := map[string]*PagedBase{}
	pm := writePagedCheckpoint(t, dir, "mmap.ckpt", snap)
	b, err := OpenPagedBase(pm, PagedBaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	modes["mmap"] = b
	pp := writePagedCheckpoint(t, dir, "pread.ckpt", snap)
	b, err = OpenPagedBase(pp, PagedBaseOptions{NoMmap: true, CapPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	modes["pread"] = b
	return modes
}

func TestPagedBaseQueryBothModes(t *testing.T) {
	snap := testCheckpointSnapshot(11, 400, 2)
	for mode, b := range openBothBaseModes(t, snap) {
		t.Run(mode, func(t *testing.T) {
			defer b.Close()
			if b.Len() != len(snap.Handles) || b.K() != snap.K || b.Dim() != snap.Dim {
				t.Fatalf("meta mismatch: len=%d k=%d dim=%d", b.Len(), b.K(), b.Dim())
			}
			if b.LastSeq() != snap.LastSeq || b.NextHandle() != snap.NextHandle {
				t.Fatalf("watermarks: seq=%d next=%d", b.LastSeq(), b.NextHandle())
			}
			present := map[int64]bool{}
			for _, h := range snap.Handles {
				present[h] = true
				if !b.Has(h) {
					t.Fatalf("Has(%d) = false for a base handle", h)
				}
			}
			for h := int64(0); h < snap.NextHandle+2; h++ {
				if b.Has(h) != present[h] {
					t.Fatalf("Has(%d) = %v, want %v", h, !present[h], present[h])
				}
			}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 60; i++ {
				q, ws := randRect(rng, 2), randKeywordPair(rng)
				got, st := collectBase(t, b, q, ws, QueryOpts{})
				want := snapOracle(snap, q, ws)
				if len(got) != len(want) {
					t.Fatalf("query %d: %d results, want %d", i, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("query %d: handle %d, want %d", i, got[j], want[j])
					}
				}
				if st.Reported != len(want) {
					t.Fatalf("query %d: Reported=%d, want %d", i, st.Reported, len(want))
				}
				if len(want) > 0 && st.Ops == 0 {
					t.Fatal("non-empty result charged zero ops")
				}
			}
			// A keyword outside the vocabulary empties the result for free.
			got, st := collectBase(t, b, geom.UniverseRect(2), []dataset.Keyword{900, 901}, QueryOpts{})
			if len(got) != 0 || st.Ops != 0 {
				t.Fatalf("absent keyword: %d results, %d ops", len(got), st.Ops)
			}
			// Entries decodes the full snapshot back.
			hs, objs, err := b.Entries()
			if err != nil {
				t.Fatal(err)
			}
			sameEntrySet(t, hs, objs, snap.Handles, snap.Objs)
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatal("second Close must be a no-op, got", err)
			}
		})
	}
}

func TestPagedBaseStopConditions(t *testing.T) {
	snap := testCheckpointSnapshot(13, 300, 2)
	for mode, b := range openBothBaseModes(t, snap) {
		t.Run(mode, func(t *testing.T) {
			defer b.Close()
			ws := []dataset.Keyword{0, 1}
			all := snapOracle(snap, geom.UniverseRect(2), ws)
			if len(all) < 3 {
				t.Skip("seed produced too few matches")
			}
			// Limit truncates silently after the cap.
			got, st := collectBase(t, b, geom.UniverseRect(2), ws, QueryOpts{Limit: 2})
			if len(got) != 2 || !st.Truncated || st.BudgetHit {
				t.Fatalf("limit: %d results, truncated=%v budgetHit=%v", len(got), st.Truncated, st.BudgetHit)
			}
			// Budget exhaustion is a silent stop with BudgetHit.
			_, st = collectBase(t, b, geom.UniverseRect(2), ws, QueryOpts{Budget: 1})
			if !st.BudgetHit || !st.Truncated {
				t.Fatalf("budget: budgetHit=%v truncated=%v", st.BudgetHit, st.Truncated)
			}
			// Policy node budget surfaces as a typed error with partial stats.
			_, err := b.Query(geom.UniverseRect(2), ws, QueryOpts{Policy: ExecPolicy{NodeBudget: 1}}, func(int64, *dataset.Object) {})
			if !errors.Is(err, ErrBudget) {
				t.Fatalf("policy budget: err=%v, want ErrBudget", err)
			}
			// Arity and rectangle validation match the in-RAM indexes.
			if _, err := b.Query(geom.UniverseRect(2), []dataset.Keyword{1}, QueryOpts{}, nil); !errors.Is(err, ErrInvalidQuery) {
				t.Fatalf("arity: err=%v", err)
			}
			if _, err := b.Query(&geom.Rect{Lo: []float64{0}, Hi: []float64{1}}, ws, QueryOpts{}, nil); err == nil {
				t.Fatal("dimension-mismatched rectangle accepted")
			}
		})
	}
}

// TestPagedBaseMatchesClassicRestore drives the same mutation + query history
// against a fully decoded restore and a paged-base restore and demands
// identical results throughout — the paged base is a drop-in bottom layer.
func TestPagedBaseMatchesClassicRestore(t *testing.T) {
	snap := testCheckpointSnapshot(17, 250, 2)
	dir := t.TempDir()
	p := writePagedCheckpoint(t, dir, "base.ckpt", snap)
	b, err := OpenPagedBase(p, PagedBaseOptions{NoMmap: true, CapPages: 16})
	if err != nil {
		t.Fatal(err)
	}

	classic, err := RestoreDynamicORPKW(2, 2, 8, snap.Handles, snap.Objs, snap.NextHandle)
	if err != nil {
		t.Fatal(err)
	}
	paged, err := RestoreDynamicORPKWFromBase(2, 2, 8, b, snap.NextHandle)
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Base().Close()
	if paged.Len() != classic.Len() {
		t.Fatalf("restored Len %d vs %d", paged.Len(), classic.Len())
	}

	rng := rand.New(rand.NewSource(29))
	handles := slices.Clone(snap.Handles)
	check := func(step int) {
		q, ws := randRect(rng, 2), randKeywordPair(rng)
		if step%7 == 0 {
			q = geom.UniverseRect(2)
		}
		gc, _, err := classic.Collect(q, ws)
		if err != nil {
			t.Fatal(err)
		}
		gp, _, err := paged.Collect(q, ws)
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(gc)
		slices.Sort(gp)
		if len(gc) != len(gp) {
			t.Fatalf("step %d: classic %d results, paged %d", step, len(gc), len(gp))
		}
		for i := range gc {
			if gc[i] != gp[i] {
				t.Fatalf("step %d: result %d differs: %d vs %d", step, i, gc[i], gp[i])
			}
		}
	}

	for step := 0; step < 400; step++ {
		switch {
		case step%3 == 0 && len(handles) > 0:
			// Delete a random live handle (often a base-resident one) from both.
			i := rng.Intn(len(handles))
			h := handles[i]
			ok1, err1 := classic.Delete(h)
			ok2, err2 := paged.Delete(h)
			if err1 != nil || err2 != nil || ok1 != ok2 {
				t.Fatalf("step %d: delete(%d) = (%v,%v) vs (%v,%v)", step, h, ok1, err1, ok2, err2)
			}
			handles[i] = handles[len(handles)-1]
			handles = handles[:len(handles)-1]
		default:
			obj := randObj(rng)
			h1, err1 := classic.Insert(obj)
			h2, err2 := paged.Insert(obj)
			if err1 != nil || err2 != nil || h1 != h2 {
				t.Fatalf("step %d: insert = (%d,%v) vs (%d,%v)", step, h1, err1, h2, err2)
			}
			handles = append(handles, h1)
		}
		if paged.Len() != classic.Len() {
			t.Fatalf("step %d: Len %d vs %d", step, paged.Len(), classic.Len())
		}
		if step%10 == 0 {
			check(step)
		}
	}
	check(401)

	// The merged durability snapshots agree entry for entry.
	hc, oc, err := classic.SnapshotNow().Entries()
	if err != nil {
		t.Fatal(err)
	}
	hp, op, err := paged.SnapshotNow().Entries()
	if err != nil {
		t.Fatal(err)
	}
	sameEntrySet(t, hc, oc, hp, op)
}

// TestPagedBaseDeleteSemantics exercises tombstoning of base entries: double
// deletes, Len accounting, exclusion from queries and snapshots, and survival
// of base tombstones across bucket compactions.
func TestPagedBaseDeleteSemantics(t *testing.T) {
	snap := testCheckpointSnapshot(19, 64, 2)
	dir := t.TempDir()
	p := writePagedCheckpoint(t, dir, "del.ckpt", snap)
	b, err := OpenPagedBase(p, PagedBaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := RestoreDynamicORPKWFromBase(2, 2, 4, b, snap.NextHandle)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	victim := snap.Handles[10]
	if ok, err := d.Delete(victim); err != nil || !ok {
		t.Fatalf("delete base handle: ok=%v err=%v", ok, err)
	}
	if ok, _ := d.Delete(victim); ok {
		t.Fatal("double delete of a base handle reported true")
	}
	if d.Len() != len(snap.Handles)-1 {
		t.Fatalf("Len = %d after one delete", d.Len())
	}
	got, _, err := d.Collect(geom.UniverseRect(2), snap.Objs.Doc(10)[:1+len(snap.Objs.Doc(10))%2])
	if err == nil {
		for _, h := range got {
			if h == victim {
				t.Fatal("tombstoned base handle reported by a query")
			}
		}
	}

	// Fill buckets above the base, then delete every inserted entry: the
	// bucket tombstones force compactions, which must neither resurrect the
	// base victim nor purge base tombstones (the base is immutable).
	rng := rand.New(rand.NewSource(31))
	var inserted []int64
	for i := 0; i < 64; i++ {
		h, err := d.Insert(randObj(rng))
		if err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, h)
	}
	for _, h := range inserted {
		if ok, err := d.Delete(h); err != nil || !ok {
			t.Fatalf("delete inserted %d: ok=%v err=%v", h, ok, err)
		}
	}
	if d.Len() != len(snap.Handles)-1 {
		t.Fatalf("Len = %d after churn, want %d", d.Len(), len(snap.Handles)-1)
	}
	if d.Base() == nil {
		t.Fatal("compaction dropped the base layer")
	}
	hs, _, err := d.SnapshotNow().Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != len(snap.Handles)-1 {
		t.Fatalf("snapshot entries = %d, want %d", len(hs), len(snap.Handles)-1)
	}
	if slices.Contains(hs, victim) {
		t.Fatal("snapshot resurrects the tombstoned base handle")
	}
	// Compactions must have purged bucket tombstones (65 deletes happened)
	// while maintaining the rest-state invariant — bucket tombstones (total
	// minus the one immutable base tombstone) stay under half the live count,
	// so the base tombstone can never retrigger compaction forever.
	tombs := d.Tombstones()
	if tombs >= 65 {
		t.Fatalf("tombstones = %d: no compaction purged anything", tombs)
	}
	if 2*(tombs-1) > d.Len() {
		t.Fatalf("tombstones = %d violate the compaction invariant for %d live", tombs, d.Len())
	}
}

// TestPagedBaseLazyChecksum: in pread mode payload pages are verified on
// first pin, so a corrupt points page passes open (which touches only
// metadata columns) but fails the first query that reads it.
func TestPagedBaseLazyChecksum(t *testing.T) {
	snap := testCheckpointSnapshot(23, 500, 4)
	dir := t.TempDir()
	p := writePagedCheckpoint(t, dir, "corrupt.ckpt", snap)

	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := codec.ParseContainer(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	off, n, ok := c.Section(codec.SecPoints)
	if !ok || n < 8 {
		t.Fatal("no points section")
	}
	raw[off+n/2] ^= 0xff
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	b, err := OpenPagedBase(p, PagedBaseOptions{NoMmap: true, CapPages: 8})
	if err != nil {
		t.Fatalf("pread open must not touch payload pages: %v", err)
	}
	defer b.Close()
	var qerr error
	for i := 0; i < 60 && qerr == nil; i++ {
		ws := []dataset.Keyword{dataset.Keyword(i % 12), dataset.Keyword((i + 1) % 12)}
		_, qerr = b.Query(geom.UniverseRect(4), ws, QueryOpts{}, func(int64, *dataset.Object) {})
	}
	if !errors.Is(qerr, pager.ErrChecksum) {
		t.Fatalf("corrupt payload page served without ErrChecksum (err=%v)", qerr)
	}

	// The mapped open verifies every page eagerly when zero-copy casts are
	// active, and lazily otherwise — either way the corruption surfaces.
	p2 := filepath.Join(dir, "corrupt2.ckpt")
	if err := os.WriteFile(p2, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	b2, err := OpenPagedBase(p2, PagedBaseOptions{})
	if err == nil {
		defer b2.Close()
		var qerr2 error
		for i := 0; i < 60 && qerr2 == nil; i++ {
			ws := []dataset.Keyword{dataset.Keyword(i % 12), dataset.Keyword((i + 1) % 12)}
			_, qerr2 = b2.Query(geom.UniverseRect(4), ws, QueryOpts{}, func(int64, *dataset.Object) {})
		}
		if !errors.Is(qerr2, pager.ErrChecksum) {
			t.Fatalf("mapped mode served corrupt page (err=%v)", qerr2)
		}
	} else if !errors.Is(err, pager.ErrChecksum) {
		t.Fatalf("mapped open failed with %v, want ErrChecksum", err)
	}
}

// TestOpenPagedBaseRejectsBadFiles: a v1 checkpoint, truncation, and the
// checkpoints of the two formats before rows were stored by rank — without
// any rank section, and PR 24's with the rank -> entry column beside
// documents in entry order — are all refused at open, the last two by name,
// by the decoding reader too (recovery's refusal is
// wal.TestSoleDamagedCheckpointRefused's).
func TestOpenPagedBaseRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	snap := testCheckpointSnapshot(37, 40, 2)

	// Not a KWCP2 file: a legacy KWCP v1 header padded out to two pages.
	v1 := append([]byte("KWCP\x01\x02\x02\x00\x00\x00"), make([]byte, 2*pager.PageSize-10)...)
	p1 := filepath.Join(dir, "v1.ckpt")
	if err := os.WriteFile(p1, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPagedBase(p1, PagedBaseOptions{}); err == nil {
		t.Fatal("v1 checkpoint accepted as a paged base")
	}

	p2 := writePagedCheckpoint(t, dir, "trunc.ckpt", snap)
	raw, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, raw[:len(raw)-pager.PageSize], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPagedBase(p2, PagedBaseOptions{}); err == nil {
		t.Fatal("truncated container accepted")
	}

	// Sound in every other respect, but their rows are not stored by rank:
	// no rank section at all, or PR 24's rank column whose entry-ordered
	// documents must never be read as rows.
	for name, old := range map[string][]byte{
		"pre-rank": withoutRankSections(t, raw),
		"pr-24":    pr24Checkpoint(t, raw),
	} {
		p := filepath.Join(dir, name+".ckpt")
		if err := os.WriteFile(p, old, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, opts := range []PagedBaseOptions{{}, {NoMmap: true}} {
			if _, err := OpenPagedBase(p, opts); !errors.Is(err, codec.ErrNoRankRows) {
				t.Fatalf("%s: OpenPagedBase(%+v): %v", name, opts, err)
			}
		}
		if _, err := codec.ReadPagedSnapshot(bytes.NewReader(old), int64(len(old))); !errors.Is(err, codec.ErrNoRankRows) || !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("%s: ReadPagedSnapshot: %v", name, err)
		}
	}
}
