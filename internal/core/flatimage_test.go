package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"kwsc/internal/codec"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/pager"
	"kwsc/internal/spart"
	"kwsc/internal/workload"
)

// testDataset builds a deterministic dataset: clustered points (so tree
// nodes at every depth see both covered and crossing query cells) and docs
// drawn from a small vocabulary with skewed frequencies (so some keywords go
// large and others stay materialized).
func testDataset(t testing.TB, seed int64, n, dim int) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objs := make([]dataset.Object, n)
	for i := range objs {
		p := make(geom.Point, dim)
		for j := range p {
			p[j] = float64(rng.Intn(40)) + rng.Float64()
		}
		nw := 2 + rng.Intn(4)
		doc := make([]dataset.Keyword, nw)
		for j := range doc {
			// Zipf-ish: low keyword ids are frequent.
			doc[j] = dataset.Keyword(rng.Intn(3 + rng.Intn(14)))
		}
		doc = dataset.NormalizeDoc(doc)
		for len(doc) < 2 {
			doc = dataset.NormalizeDoc(append(doc, dataset.Keyword(rng.Intn(17))))
		}
		objs[i] = dataset.Object{Point: p, Doc: doc}
	}
	ds, err := dataset.New(objs)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func randImageRect(rng *rand.Rand, dim int) *geom.Rect {
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for j := range lo {
		a, b := rng.Float64()*41, rng.Float64()*41
		if a > b {
			a, b = b, a
		}
		lo[j], hi[j] = a, b
	}
	return geom.NewRect(lo, hi)
}

func randKeywords(rng *rand.Rand, k int) []dataset.Keyword {
	for {
		ws := make([]dataset.Keyword, k)
		for i := range ws {
			ws[i] = dataset.Keyword(rng.Intn(17))
		}
		if len(dataset.NormalizeDoc(append([]dataset.Keyword(nil), ws...))) == k {
			return ws
		}
	}
}

// randOpts exercises every stop mechanism: plain, Limit, and the
// error-surfacing Policy bounds (an expired deadline stops at the first
// check, so both access modes stop at the same place).
func randOpts(rng *rand.Rand) QueryOpts {
	switch rng.Intn(4) {
	case 0:
		return QueryOpts{Limit: 1 + rng.Intn(4)}
	case 1:
		return QueryOpts{Policy: ExecPolicy{NodeBudget: 1 + int64(rng.Intn(30))}}
	case 2:
		return QueryOpts{Policy: ExecPolicy{Deadline: time.Now().Add(-time.Second)}}
	default:
		return QueryOpts{}
	}
}

// openBothORPKW saves ix to two files (the pager registry is per-path, so
// each access mode needs its own path) and opens one mapped, one pread.
func openBothORPKW(t *testing.T, ix *ORPKW) map[string]*ORPKW {
	t.Helper()
	dir := t.TempDir()
	out := map[string]*ORPKW{}
	for name, o := range map[string]FlatOptions{
		"mmap":  {},
		"pread": {NoMmap: true},
	} {
		path := filepath.Join(dir, name+".kwflat")
		if err := SaveFlat(path, ix); err != nil {
			t.Fatal(err)
		}
		opened, h, err := OpenFlat[*ORPKW](path, o)
		if err != nil {
			t.Fatalf("OpenFlat[*ORPKW](%s): %v", name, err)
		}
		t.Cleanup(func() {
			if err := h.Close(); err != nil {
				t.Errorf("close %s: %v", name, err)
			}
		})
		out[name] = opened
	}
	return out
}

// reopened saves ix as a flat image and opens it again with o; the handle
// closes with the test.
func reopened[I FlatIndex](t *testing.T, ix I, o FlatOptions) I {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ix.kwflat")
	if err := SaveFlat(path, ix); err != nil {
		t.Fatal(err)
	}
	opened, h, err := OpenFlat[I](path, o, WithoutObs())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return opened
}

// TestORPKWPagedMatchesInRAM is the byte-identical property: for a shared
// query stream with every stop mechanism in play, the paged index (both
// access modes) must return the same ids in the same order, the same
// QueryStats, and the same error as the index it was saved from.
func TestORPKWPagedMatchesInRAM(t *testing.T) {
	ds := testDataset(t, 1, 600, 2)
	built, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	opened := openBothORPKW(t, built)

	rng := rand.New(rand.NewSource(2))
	for qi := 0; qi < 120; qi++ {
		q := randImageRect(rng, 2)
		ws := randKeywords(rng, 2)
		opts := randOpts(rng)
		wantIDs, wantSt, wantErr := built.CollectInto(q, ws, opts, nil)
		for name, ix := range opened {
			gotIDs, gotSt, gotErr := ix.CollectInto(q, ws, opts, nil)
			if !reflect.DeepEqual(gotIDs, wantIDs) {
				t.Fatalf("query %d (%s): ids %v, want %v", qi, name, gotIDs, wantIDs)
			}
			if gotSt != wantSt {
				t.Fatalf("query %d (%s): stats %+v, want %+v", qi, name, gotSt, wantSt)
			}
			if !errors.Is(gotErr, wantErr) && !errors.Is(wantErr, gotErr) {
				t.Fatalf("query %d (%s): err %v, want %v", qi, name, gotErr, wantErr)
			}
		}
	}

	// The reconstructed index also agrees on the structural accessors the
	// space audits and experiment tables read.
	for name, ix := range opened {
		if ix.K() != built.K() {
			t.Fatalf("%s: K = %d, want %d", name, ix.K(), built.K())
		}
		bf, of := built.Framework(), ix.Framework()
		if of.NumNodes() != bf.NumNodes() || of.Height() != bf.Height() ||
			of.MaxPivots() != bf.MaxPivots() || of.PointDim() != bf.PointDim() {
			t.Fatalf("%s: framework shape diverged", name)
		}
	}
}

// TestSPKWPagedMatchesInRAM is the same property for SPKW over a KD
// splitter (d=3 exercises the non-planar path; halfspace queries exercise
// the convex, non-rectangular Relate code).
func TestSPKWPagedMatchesInRAM(t *testing.T) {
	ds := testDataset(t, 3, 400, 3)
	built, err := BuildSPKW(ds, SPKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opened := map[string]*SPKW{}
	for name, o := range map[string]FlatOptions{
		"mmap":  {},
		"pread": {NoMmap: true},
	} {
		path := filepath.Join(dir, name+".kwflat")
		if err := SaveFlat(path, built); err != nil {
			t.Fatal(err)
		}
		ix, h, err := OpenFlat[*SPKW](path, o)
		if err != nil {
			t.Fatalf("OpenFlat[*SPKW](%s): %v", name, err)
		}
		defer h.Close()
		opened[name] = ix
	}

	rng := rand.New(rand.NewSource(4))
	for qi := 0; qi < 80; qi++ {
		hs := []geom.Halfspace{
			{Coef: []float64{1, rng.Float64() - 0.5, rng.Float64() - 0.5}, Bound: rng.Float64() * 40},
			{Coef: []float64{-1, rng.Float64() - 0.5, rng.Float64() - 0.5}, Bound: -rng.Float64() * 10},
			{Coef: []float64{rng.Float64() - 0.5, 1, 0}, Bound: rng.Float64() * 40},
		}
		ws := randKeywords(rng, 2)
		opts := randOpts(rng)
		wantIDs, wantSt, wantErr := built.CollectInto(hs, ws, opts, nil)
		for name, ix := range opened {
			gotIDs, gotSt, gotErr := ix.CollectInto(hs, ws, opts, nil)
			if !reflect.DeepEqual(gotIDs, wantIDs) {
				t.Fatalf("query %d (%s): ids %v, want %v", qi, name, gotIDs, wantIDs)
			}
			if gotSt != wantSt {
				t.Fatalf("query %d (%s): stats %+v, want %+v", qi, name, gotSt, wantSt)
			}
			if !errors.Is(gotErr, wantErr) && !errors.Is(wantErr, gotErr) {
				t.Fatalf("query %d (%s): err %v, want %v", qi, name, gotErr, wantErr)
			}
		}
	}
}

// TestOpenDerivesTheBuiltLayout holds the layout an open derives from an
// image's independent columns to the one the build packed and derived,
// column by column, mapped and not: the image stores no column derive
// computes, and every one comes back the same.
func TestOpenDerivesTheBuiltLayout(t *testing.T) {
	check := func(name string, built *Framework, open func(FlatOptions) *Framework) {
		for _, o := range []FlatOptions{{}, {NoMmap: true}} {
			opened := open(o)
			b, g := &built.flatLayout, &opened.flatLayout
			bp, bs, bw := built.rows.Columns()
			gp, gs, gw := opened.rows.Columns()
			for _, col := range []struct {
				name       string
				built, got []byte
			}{
				{"childFirst", pager.AsBytes(b.childFirst), pager.AsBytes(g.childFirst)},
				{"childCount", pager.AsBytes(b.childCount), pager.AsBytes(g.childCount)},
				{"l", pager.AsBytes(b.l), pager.AsBytes(g.l)},
				{"nu", pager.AsBytes(b.nu), pager.AsBytes(g.nu)},
				{"rankLo", pager.AsBytes(b.rankLo), pager.AsBytes(g.rankLo)},
				{"rankSpan", pager.AsBytes(b.rankSpan), pager.AsBytes(g.rankSpan)},
				{"pivotCount", pager.AsBytes(b.pivotCount), pager.AsBytes(g.pivotCount)},
				{"tensorOff", pager.AsBytes(b.tensorOff), pager.AsBytes(g.tensorOff)},
				{"tensorStride", pager.AsBytes(b.tensorStride), pager.AsBytes(g.tensorStride)},
				{"tensorArena", pager.AsBytes(b.tensorArena.Raw()), pager.AsBytes(g.tensorArena.Raw())},
				{"largeStart", pager.AsBytes(b.largeStart), pager.AsBytes(g.largeStart)},
				{"largeKeys", pager.AsBytes(b.largeKeys), pager.AsBytes(g.largeKeys)},
				{"largeIdx", pager.AsBytes(b.largeIdx), pager.AsBytes(g.largeIdx)},
				{"matStart", pager.AsBytes(b.matStart), pager.AsBytes(g.matStart)},
				{"matKeys", pager.AsBytes(b.matKeys), pager.AsBytes(g.matKeys)},
				{"matRanks", pager.AsBytes(b.matRanks), pager.AsBytes(g.matRanks)},
				{"matBits", pager.AsBytes(b.matBits), pager.AsBytes(g.matBits)},
				{"boxes", pager.AsBytes(b.boxes), pager.AsBytes(g.boxes)},
				{"ids", pager.AsBytes(built.ids), pager.AsBytes(opened.ids)},
				{"points", pager.AsBytes(bp), pager.AsBytes(gp)},
				{"docStart", pager.AsBytes(bs), pager.AsBytes(gs)},
				{"docWords", pager.AsBytes(bw), pager.AsBytes(gw)},
			} {
				if !bytes.Equal(col.built, col.got) {
					t.Errorf("%s (NoMmap=%v): the opened %s differs from the built one", name, o.NoMmap, col.name)
				}
			}
			if !slices.Equal(b.matLists, g.matLists) {
				t.Errorf("%s (NoMmap=%v): the opened list handles differ from the built ones", name, o.NoMmap)
			}
			if b.cells != nil || g.cells != nil || built.Space() != opened.Space() {
				t.Errorf("%s (NoMmap=%v): cells %d / %d, space %+v / %+v", name, o.NoMmap, len(b.cells), len(g.cells), built.Space(), opened.Space())
			}
		}
	}
	zipf2 := workload.Gen(workload.Config{Seed: 201, Objects: 50_000, Dim: 2, Vocab: 500, DocLen: 5})
	for name, ds := range map[string]*dataset.Dataset{"zipf2": zipf2, "ties": tieDataset(211, 20_000, 80, 4)} {
		ix, err := BuildORPKW(ds, 2, WithoutObs())
		if err != nil {
			t.Fatal(err)
		}
		check("ORPKW/"+name, ix.Framework(), func(o FlatOptions) *Framework { return reopened(t, ix, o).Framework() })
	}
	small2 := workload.Gen(workload.Config{Seed: 204, Objects: 5000, Dim: 2, Vocab: 120, DocLen: 4})
	for name, ds := range map[string]*dataset.Dataset{"small2": small2, "grid16": gridDataset(209, 5000, 16, 120, 4)} {
		ix := pinnedSPKW(t, ds, &spart.KD{Dim: 2})
		check("SPKW/KD/"+name, ix.Framework(), func(o FlatOptions) *Framework { return reopened(t, ix, o).Framework() })
	}
}

// TestImageRowsAreTheCheckpointRows: an image stores its objects as a
// checkpoint of the same entries does. Over one entry set, handle i naming
// object i, the image's three row sections are the checkpoint's SecPoints,
// SecDocStart and SecDocWords byte for byte, and its rank column is the
// checkpoint's rank -> handle column.
func TestImageRowsAreTheCheckpointRows(t *testing.T) {
	for name, ds := range map[string]*dataset.Dataset{
		"zipf2": workload.Gen(workload.Config{Seed: 31, Objects: 5000, Dim: 2, Vocab: 200, DocLen: 5}),
		"ties":  tieDataset(32, 3000, 40, 4),
		"d=3":   workload.Gen(workload.Config{Seed: 33, Objects: 2000, Dim: 3, Vocab: 80, DocLen: 4}),
	} {
		ix, err := BuildORPKW(ds, 2, WithoutObs())
		if err != nil {
			t.Fatal(err)
		}
		handles := make([]int64, ds.Len())
		for i := range handles {
			handles[i] = int64(i)
		}
		var img, ckpt bytes.Buffer
		if err := writeFlat(&img, ix); err != nil {
			t.Fatal(err)
		}
		if err := WritePagedSnapshot(&ckpt, &Snapshot{K: 2, Dim: ds.Dim(), NextHandle: int64(ds.Len()), Handles: handles, Objs: ds}); err != nil {
			t.Fatal(err)
		}
		section := func(raw []byte, id uint32) []byte {
			c, err := codec.ParseContainer(bytes.NewReader(raw), int64(len(raw)))
			if err != nil {
				t.Fatal(err)
			}
			data, err := c.SectionBytes(bytes.NewReader(raw), id)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		rankIDs := codec.Get[int32](section(img.Bytes(), codec.SecFlatRankIDs))
		rowHandles := codec.Get[int64](section(ckpt.Bytes(), codec.SecRowHandles))
		for r, id := range rankIDs {
			if int64(id) != rowHandles[r] {
				t.Fatalf("%s: rank %d is object %d in the image, handle %d in the checkpoint", name, r, id, rowHandles[r])
			}
		}
		for _, pair := range [][2]uint32{
			{codec.SecFlatPoints, codec.SecPoints},
			{codec.SecFlatDocStart, codec.SecDocStart},
			{codec.SecFlatDocWords, codec.SecDocWords},
		} {
			if a, b := section(img.Bytes(), pair[0]), section(ckpt.Bytes(), pair[1]); !bytes.Equal(a, b) {
				t.Errorf("%s: image section %d (%d bytes) is not checkpoint section %d (%d bytes)", name, pair[0], len(a), pair[1], len(b))
			}
		}
	}
}

// TestSaveSPKWRejectsWillard: the default d=2 substrate has polygon cells
// with no serialized form — saving must fail cleanly, not panic.
func TestSaveSPKWRejectsWillard(t *testing.T) {
	ds := testDataset(t, 5, 120, 2)
	ix, err := BuildSPKW(ds, SPKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveFlat(filepath.Join(t.TempDir(), "w.kwflat"), ix); err == nil {
		t.Fatal("saving a Willard2D index succeeded; its cells have no serialized form")
	}
}

// TestOpenRefusesDamage flips one byte in every section in turn and demands
// the open fail — the page checksums cover the entire payload, so any
// corruption is a checksum error, and a truncated file is refused at parse.
func TestOpenRefusesDamage(t *testing.T) {
	ds := testDataset(t, 7, 300, 2)
	built, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.kwflat")
	if err := SaveFlat(clean, built); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	for i, off := range []int64{
		int64(len(raw)) / 3, int64(len(raw)) / 2, int64(len(raw)) - 9,
	} {
		bad := filepath.Join(dir, "bad"+string(rune('a'+i))+".kwflat")
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x40
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenFlat[*ORPKW](bad, FlatOptions{})
		if err == nil {
			t.Fatalf("open with byte %d flipped succeeded", off)
		}
		if !errors.Is(err, pager.ErrChecksum) && !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("open with byte %d flipped: err %v, want checksum or corruption", off, err)
		}
	}

	trunc := filepath.Join(dir, "trunc.kwflat")
	if err := os.WriteFile(trunc, raw[:len(raw)-pager.PageSize], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenFlat[*ORPKW](trunc, FlatOptions{}); err == nil {
		t.Fatal("open of a truncated container succeeded")
	}

	// Kind confusion: an ORPKW image is not an SPKW image.
	if _, _, err := OpenFlat[*SPKW](clean, FlatOptions{}); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("OpenSPKW of an ORPKW image: err %v, want ErrCorrupt", err)
	}
}

// resealed writes the flat image at path, re-sealed with edit (reseal), to
// a new file and returns its path.
func resealed(t *testing.T, path string, edit func(id uint32, data []byte) []byte) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "resealed.kwflat")
	if err := os.WriteFile(out, reseal(t, raw, nil, edit), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// Images of another version of the flat section set are refused, not read
// through a second decoder, with an error that names both versions; and a
// well-framed image whose tree, rank columns, materialized lists or tensors
// are wrong is refused by validation, mapped or not — all but the rank
// column as codec.ErrCorrupt.
func TestOpenRefusesOtherVersionsAndBadRanks(t *testing.T) {
	ds := testDataset(t, 9, 400, 2)
	built, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	clean := filepath.Join(t.TempDir(), "clean.kwflat")
	if err := SaveFlat(clean, built); err != nil {
		t.Fatal(err)
	}
	same := resealed(t, clean, func(_ uint32, data []byte) []byte { return data })
	if _, h, err := OpenFlat[*ORPKW](same, FlatOptions{}); err != nil {
		t.Fatalf("a faithfully re-sealed image must open: %v", err)
	} else {
		h.Close()
	}

	current := strconv.Itoa(codec.FlatImageVersion)
	// A meta section carries exactly four values, the version among them.
	short := resealed(t, clean, func(id uint32, data []byte) []byte {
		if id == codec.SecFlatMeta {
			return data[:24]
		}
		return data
	})
	if _, _, err := OpenFlat[*ORPKW](short, FlatOptions{}); !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), "3 values") {
		t.Fatalf("three-value meta: err %v, want a refusal naming its 3 values", err)
	}
	// Version 2 packed sparse lists into delta blocks, version 3 stored kd
	// cells and ORPKW's rank tables, version 4 the columns derive computes,
	// version 5 the points twice, by rank and by id; 9 is yet to come.
	for _, v := range []uint64{1, 2, 3, 4, 5, 9} {
		other := resealed(t, clean, func(id uint32, data []byte) []byte {
			if id == codec.SecFlatMeta {
				data = slices.Clone(data)
				binary.LittleEndian.PutUint64(data[24:], v)
			}
			return data
		})
		read := "version " + strconv.FormatUint(v, 10)
		if _, _, err := OpenFlat[*ORPKW](other, FlatOptions{}); err == nil ||
			!strings.Contains(err.Error(), read) || !strings.Contains(err.Error(), "version "+current) {
			t.Fatalf("%s image: err %v, want a refusal naming it and version %s", read, err, current)
		}
	}

	// set returns an edit storing v at int32 index i of section sec.
	set := func(sec uint32, i, v int32) func(uint32, []byte) []byte {
		return func(id uint32, data []byte) []byte {
			if id == sec {
				data = slices.Clone(data)
				binary.LittleEndian.PutUint32(data[4*i:], uint32(v))
			}
			return data
		}
	}
	a := built.Framework()
	if a.tensorArena.Words() == 0 {
		t.Fatal("fixture has no tensor words")
	}
	// A sparse list of at least three ranks: handle h, ranks at l.Start.
	h := int32(slices.IndexFunc(a.matLists, func(l FlatList) bool { return l.Rep == ListRanks && l.N >= 3 }))
	if h < 0 {
		t.Fatal("fixture has no sparse list of three ranks")
	}
	l, n := a.matLists[h], int32(ds.Len())
	for _, tc := range []struct {
		name    string
		edit    func(id uint32, data []byte) []byte
		corrupt bool // the refusal must be codec.ErrCorrupt
	}{
		{"rank column repeats an id", func(id uint32, data []byte) []byte {
			if id == codec.SecFlatRankIDs {
				data = slices.Clone(data)
				copy(data[0:4], data[4:8])
			}
			return data
		}, false},
		{"child count past the node count", set(codec.SecFlatChildCount, 0, int32(a.NumNodes())), true},
		{"bitmap arena missing", func(id uint32, data []byte) []byte {
			if id == codec.SecFlatMatBits {
				return []byte{}
			}
			return data
		}, false},
		{"descending pair", set(codec.SecFlatMatRanks, l.Start+2, a.matRanks[l.Start]), true},
		{"duplicate rank", set(codec.SecFlatMatRanks, l.Start+1, a.matRanks[l.Start]), true},
		{"rank below every interval", set(codec.SecFlatMatRanks, l.Start, -1), true},
		{"rank past every interval", set(codec.SecFlatMatRanks, l.Start+l.N-1, n), true},
		{"list count overruns the derived arena", set(codec.SecFlatMatHandles, 2*h, l.N+1), true},
		{"list length negative", set(codec.SecFlatMatHandles, 2*h, -1), true},
		{"unknown representation tag", set(codec.SecFlatMatHandles, 2*h+1, 2), true},
		{"handle column cut mid-pair", func(id uint32, data []byte) []byte {
			if id == codec.SecFlatMatHandles {
				return data[:len(data)-4]
			}
			return data
		}, true},
		{"tensor words short of the derived total", func(id uint32, data []byte) []byte {
			if id == codec.SecFlatTensorWrds {
				return data[:len(data)-8]
			}
			return data
		}, true},
	} {
		bad := resealed(t, clean, tc.edit)
		for _, o := range []FlatOptions{{}, {NoMmap: true}} {
			if _, _, err := OpenFlat[*ORPKW](bad, o); err == nil || tc.corrupt && !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("%s (NoMmap=%v): open returned %v", tc.name, o.NoMmap, err)
			}
		}
	}
}

// The rows of a well-framed image, its objects by rank, are validated like
// its rank and list columns: each non-canonical edit (dataset's
// hostileColumns table and a NaN coordinate, fed through a saved image) is
// refused as codec.ErrCorrupt by both index kinds, mapped or not — never a
// panic, never an index.
func TestOpenRefusesHostileDatasetColumns(t *testing.T) {
	type cols = func(p []float64, s []int64, w []dataset.Keyword) ([]float64, []int64, []dataset.Keyword)
	hostile := []struct {
		name string
		edit cols
	}{
		{"points one coordinate short", func(p []float64, s []int64, w []dataset.Keyword) ([]float64, []int64, []dataset.Keyword) {
			return p[:len(p)-1], s, w
		}},
		{"points one coordinate long", func(p []float64, s []int64, w []dataset.Keyword) ([]float64, []int64, []dataset.Keyword) {
			return append(p, 0), s, w
		}},
		{"docStart[0] != 0", func(p []float64, s []int64, w []dataset.Keyword) ([]float64, []int64, []dataset.Keyword) {
			s[0] = 1
			return p, s, w
		}},
		{"docStart decreasing pair", func(p []float64, s []int64, w []dataset.Keyword) ([]float64, []int64, []dataset.Keyword) {
			s[1], s[2] = s[2], s[1]
			return p, s, w
		}},
		{"empty document", func(p []float64, s []int64, w []dataset.Keyword) ([]float64, []int64, []dataset.Keyword) {
			s[2] = s[1]
			return p, s, w
		}},
		{"last offset != len(docWords)", func(p []float64, s []int64, w []dataset.Keyword) ([]float64, []int64, []dataset.Keyword) {
			s[len(s)-1]++
			return p, s, w
		}},
		{"offset past the end mid-column", func(p []float64, s []int64, w []dataset.Keyword) ([]float64, []int64, []dataset.Keyword) {
			s[1] = int64(len(w)) + 5
			return p, s, w
		}},
		{"docStart one entry short", func(p []float64, s []int64, w []dataset.Keyword) ([]float64, []int64, []dataset.Keyword) {
			return p, s[:len(s)-1], w
		}},
		{"docWords descending pair", func(p []float64, s []int64, w []dataset.Keyword) ([]float64, []int64, []dataset.Keyword) {
			w[s[1]], w[s[1]+1] = w[s[1]+1], w[s[1]]
			return p, s, w
		}},
		{"docWords duplicate in one document", func(p []float64, s []int64, w []dataset.Keyword) ([]float64, []int64, []dataset.Keyword) {
			w[s[1]+1] = w[s[1]]
			return p, s, w
		}},
		{"NaN coordinate", func(p []float64, s []int64, w []dataset.Keyword) ([]float64, []int64, []dataset.Keyword) {
			p[len(p)-2] = math.NaN()
			return p, s, w
		}},
	}

	ds := testDataset(t, 13, 300, 3) // d=3: SP-KW's d=2 splitter has no flat form
	orp, err := BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := BuildSPKW(ds, SPKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	orpPath, spPath := filepath.Join(dir, "orp.kwflat"), filepath.Join(dir, "sp.kwflat")
	if err := SaveFlat(orpPath, orp); err != nil {
		t.Fatal(err)
	}
	if err := SaveFlat(spPath, sp); err != nil {
		t.Fatal(err)
	}
	opens := map[string]struct {
		rows *dataset.Dataset
		open func(string, FlatOptions) (*FlatHandle, error)
	}{
		orpPath: {&orp.fw.rows, func(p string, o FlatOptions) (*FlatHandle, error) { _, h, err := OpenFlat[*ORPKW](p, o); return h, err }},
		spPath:  {&sp.fw.rows, func(p string, o FlatOptions) (*FlatHandle, error) { _, h, err := OpenFlat[*SPKW](p, o); return h, err }},
	}
	for _, tc := range hostile {
		for clean, img := range opens {
			p0, s0, w0 := img.rows.Columns()
			p, s, w := tc.edit(slices.Clone(p0), slices.Clone(s0), slices.Clone(w0))
			bad := resealed(t, clean, func(id uint32, data []byte) []byte {
				switch id {
				case codec.SecFlatPoints:
					return codec.Put(p)
				case codec.SecFlatDocStart:
					return codec.Put(s)
				case codec.SecFlatDocWords:
					return codec.Put(w)
				}
				return data
			})
			for _, o := range []FlatOptions{{}, {NoMmap: true}} {
				h, err := img.open(bad, o)
				if err == nil {
					h.Close()
				}
				if !errors.Is(err, codec.ErrCorrupt) {
					t.Errorf("%s (%s, NoMmap=%v): open returned %v, want codec.ErrCorrupt", tc.name, filepath.Base(clean), o.NoMmap, err)
				}
			}
		}
	}
}

// The boxes of an opened image are derived from the coordinates it compares,
// its rows, never read from it, so no section can make a box vouch for a
// coordinate outside it. The rows are the image's one copy of its points, so
// one whose row was moved opens — and still reports only objects whose
// stored coordinate satisfies every constraint: the object moved far outside
// is never reported, though the built index reports it and a covered cell
// stored by an older image would have reported it unexamined.
func TestOpenedBoxesNeverVouchForOutsiders(t *testing.T) {
	ds := testDataset(t, 19, 400, 3)
	built, err := BuildSPKW(ds, SPKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	clean := filepath.Join(t.TempDir(), "clean.kwflat")
	if err := SaveFlat(clean, built); err != nil {
		t.Fatal(err)
	}
	const moved = 37 // the rank sent far away
	bad := resealed(t, clean, func(id uint32, data []byte) []byte {
		if id != codec.SecFlatPoints {
			return data
		}
		c := codec.Get[float64](data)
		c[3*moved], c[3*moved+1], c[3*moved+2] = 1e9, -1e9, 1e9
		return codec.Put(c)
	})
	for _, o := range []FlatOptions{{}, {NoMmap: true}} {
		ix, h, err := OpenFlat[*SPKW](bad, o)
		if err != nil {
			t.Fatalf("NoMmap=%v: %v", o.NoMmap, err)
		}
		a := ix.Framework()
		rankOf := make([]int, ds.Len())
		for r, id := range a.ids {
			rankOf[id] = r
		}
		victim := a.ids[moved]
		rng := rand.New(rand.NewSource(20))
		vouched := 0 // queries the built index answers with the victim
		for qi := 0; qi < 200; qi++ {
			hs := []geom.Halfspace{
				{Coef: []float64{1, 0, 0}, Bound: 1e6},
				{Coef: []float64{0, -1, 0}, Bound: 1e6},
				{Coef: []float64{rng.Float64() - 0.5, rng.Float64() - 0.5, rng.Float64() - 0.5}, Bound: rng.Float64() * 40},
			}
			ws := randKeywords(rng, 2)
			if qi%2 == 0 {
				ws = ds.Doc(victim)[:2]
			}
			ids, _, err := ix.CollectInto(hs, ws, QueryOpts{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want, _, _ := built.CollectInto(hs, ws, QueryOpts{}, nil); slices.Contains(want, victim) {
				vouched++
			}
			for _, id := range ids {
				p := a.rows.Point(int32(rankOf[id]))
				if id == victim || !geom.NewPolyhedron(hs...).ContainsPoint(p) {
					t.Fatalf("query %d (NoMmap=%v): reported %d, compared at %v, outside %v", qi, o.NoMmap, id, p, hs)
				}
			}
		}
		if vouched == 0 {
			t.Fatal("no query would have reported the moved object: the test proves nothing")
		}
		h.Close()
	}
}

// FuzzFlatImageHostile changes one value of one section of a flat image, an
// ORP-KW or an LC-KW one, and re-seals the container, so every page checksum
// passes and only open's checks stand between the lie and an answer. Open
// must refuse the file as codec.ErrCorrupt, or: every query returns without
// panicking (a recovered panic is an error) and reports ids in [0, n) only,
// and an ORP-KW image reports only objects whose row, the one copy of their
// point, lies in the rectangle.
func FuzzFlatImageHostile(f *testing.F) {
	orp, err := BuildORPKW(testDataset(f, 23, 240, 2), 2, WithoutObs())
	if err != nil {
		f.Fatal(err)
	}
	lc, err := BuildSPKW(testDataset(f, 24, 200, 3), SPKWConfig{K: 2}, WithoutObs())
	if err != nil {
		f.Fatal(err)
	}
	var images [2]bytes.Buffer
	if err := writeFlat(&images[0], orp); err != nil {
		f.Fatal(err)
	}
	if err := writeFlat(&images[1], lc); err != nil {
		f.Fatal(err)
	}
	wide := map[uint32]bool{ // the sections of 8-byte values
		codec.SecFlatMeta: true, codec.SecFlatNu: true, codec.SecFlatMatBits: true, codec.SecFlatTensorWrds: true,
		codec.SecFlatPoints: true, codec.SecFlatDocStart: true,
	}
	for kind := range images {
		for col := range flatColumns {
			for _, at := range []uint32{0, 5} {
				// 2 and 64 move a child or a list count across the derived
				// offsets after it; 64 is also a word of tensor or bitmap bits.
				// A float sends a row's coordinate to 20, NaN or -Inf.
				for _, v := range []uint64{0, 1, 2, 64, 1 << 31, math.Float64bits(20), math.Float64bits(math.NaN()), math.Float64bits(math.Inf(-1)), math.MaxUint64} {
					f.Add(uint8(kind), uint8(col), at, v)
				}
			}
		}
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, kind, col uint8, at uint32, v uint64) {
		target := flatColumns[int(col)%len(flatColumns)].id
		raw := reseal(t, images[kind%2].Bytes(), nil, func(id uint32, data []byte) []byte {
			if id != target || len(data) == 0 {
				return nil
			}
			out := slices.Clone(data)
			if wide[id] {
				binary.LittleEndian.PutUint64(out[8*(int(at)%(len(out)/8)):], v)
			} else {
				binary.LittleEndian.PutUint32(out[4*(int(at)%(len(out)/4)):], uint32(v))
			}
			return out
		})
		path := filepath.Join(dir, "hostile.kwflat")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, o := range []FlatOptions{{}, {NoMmap: true}} {
			rng := rand.New(rand.NewSource(int64(at)))
			var h *FlatHandle
			var n int
			var query func(i int) ([]int32, error)
			if kind%2 == 0 {
				var ix *ORPKW
				ix, h, err = OpenFlat[*ORPKW](path, o)
				if err == nil {
					fw := ix.Framework()
					n = len(fw.ids)
					rankOf := make([]int32, n) // open checked the rank column is a permutation
					for r, id := range fw.ids {
						rankOf[id] = int32(r)
					}
					query = func(i int) ([]int32, error) {
						q, ws := randImageRect(rng, 2), randKeywords(rng, 2)
						if i%6 == 0 {
							q = geom.UniverseRect(2)
						}
						// Half the queries aim at the rank whose row the change
						// may have moved: its keywords, a rectangle about it.
						if r := int32(int(at) / 2 % n); i%2 == 1 {
							if doc := fw.rows.Doc(r); len(doc) >= 2 {
								ws = doc[:2]
							}
							if c := fw.rows.Point(r); !math.IsInf(c[0], 0) && !math.IsInf(c[1], 0) {
								q = geom.NewRect([]float64{c[0] - rng.Float64(), c[1] - rng.Float64()}, []float64{c[0] + rng.Float64(), c[1] + rng.Float64()})
							}
						}
						ids, _, err := ix.CollectInto(q, ws, QueryOpts{}, nil)
						for _, id := range ids {
							if id < 0 || int(id) >= n {
								continue
							}
							if p := fw.rows.Point(rankOf[id]); !q.ContainsPoint(p) {
								t.Fatalf("reported %d at %v, outside %v", id, p, q)
							}
						}
						return ids, err
					}
				}
			} else {
				var ix *SPKW
				ix, h, err = OpenFlat[*SPKW](path, o)
				if err == nil {
					n = len(ix.Framework().ids)
					query = func(int) ([]int32, error) {
						hs := []geom.Halfspace{
							{Coef: []float64{1, rng.Float64() - 0.5, rng.Float64() - 0.5}, Bound: rng.Float64() * 40},
							{Coef: []float64{rng.Float64() - 0.5, -1, 0}, Bound: rng.Float64() * 10},
						}
						ids, _, err := ix.CollectInto(hs, randKeywords(rng, 2), QueryOpts{}, nil)
						return ids, err
					}
				}
			}
			if err != nil {
				if !errors.Is(err, codec.ErrCorrupt) {
					t.Fatalf("NoMmap=%v: open refused with %v, want codec.ErrCorrupt", o.NoMmap, err)
				}
				continue
			}
			for i := 0; i < 24; i++ {
				ids, err := query(i)
				if err != nil {
					t.Fatalf("NoMmap=%v: query %d: %v", o.NoMmap, i, err)
				}
				for _, id := range ids {
					if id < 0 || int(id) >= n {
						t.Fatalf("NoMmap=%v: query %d reported id %d outside [0, %d)", o.NoMmap, i, id, n)
					}
				}
			}
			h.Close()
		}
	})
}
