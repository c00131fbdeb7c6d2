package flatio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"kwsc/internal/codec"
	"kwsc/internal/core"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/pager"
)

// testDataset builds a deterministic dataset: clustered points (so tree
// nodes at every depth see both covered and crossing query cells) and docs
// drawn from a small vocabulary with skewed frequencies (so some keywords go
// large and others stay materialized).
func testDataset(t *testing.T, seed int64, n, dim int) *dataset.Dataset {
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

func randRect(rng *rand.Rand, dim int) *geom.Rect {
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

// randOpts exercises every stop mechanism: plain, Limit, Budget, and the
// error-surfacing Policy bounds.
func randOpts(rng *rand.Rand) core.QueryOpts {
	switch rng.Intn(5) {
	case 0:
		return core.QueryOpts{Limit: 1 + rng.Intn(4)}
	case 1:
		return core.QueryOpts{Budget: 1 + int64(rng.Intn(40))}
	case 2:
		return core.QueryOpts{Policy: core.ExecPolicy{NodeBudget: 1 + int64(rng.Intn(30))}}
	case 3:
		return core.QueryOpts{Policy: core.ExecPolicy{MaxResults: 1 + rng.Intn(4)}}
	default:
		return core.QueryOpts{}
	}
}

// openBothORPKW saves ix to two files (the pager registry is per-path, so
// each access mode needs its own path) and opens one mapped, one pread.
func openBothORPKW(t *testing.T, ix *core.ORPKW) map[string]*core.ORPKW {
	t.Helper()
	dir := t.TempDir()
	out := map[string]*core.ORPKW{}
	for name, o := range map[string]Options{
		"mmap":  {},
		"pread": {NoMmap: true},
	} {
		path := filepath.Join(dir, name+".kwflat")
		if err := SaveFileORPKW(path, ix); err != nil {
			t.Fatal(err)
		}
		opened, h, err := OpenORPKW(path, o)
		if err != nil {
			t.Fatalf("OpenORPKW(%s): %v", name, err)
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

// TestORPKWPagedMatchesInRAM is the byte-identical property: for a shared
// query stream with every stop mechanism in play, the paged index (both
// access modes) must return the same ids in the same order, the same
// QueryStats, and the same error as the index it was saved from.
func TestORPKWPagedMatchesInRAM(t *testing.T) {
	ds := testDataset(t, 1, 600, 2)
	built, err := core.BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	opened := openBothORPKW(t, built)

	rng := rand.New(rand.NewSource(2))
	for qi := 0; qi < 120; qi++ {
		q := randRect(rng, 2)
		ws := randKeywords(rng, 2)
		opts := randOpts(rng)
		wantIDs, wantSt, wantErr := built.Collect(q, ws, opts)
		for name, ix := range opened {
			gotIDs, gotSt, gotErr := ix.Collect(q, ws, opts)
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

// TestSPKWPagedMatchesInRAM is the same property for SPKW over a Box
// splitter (d=3 exercises the non-planar path; halfspace queries exercise
// the convex, non-rectangular Relate code).
func TestSPKWPagedMatchesInRAM(t *testing.T) {
	ds := testDataset(t, 3, 400, 3)
	built, err := core.BuildSPKW(ds, core.SPKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opened := map[string]*core.SPKW{}
	for name, o := range map[string]Options{
		"mmap":  {},
		"pread": {NoMmap: true},
	} {
		path := filepath.Join(dir, name+".kwflat")
		if err := SaveFileSPKW(path, built); err != nil {
			t.Fatal(err)
		}
		ix, h, err := OpenSPKW(path, o)
		if err != nil {
			t.Fatalf("OpenSPKW(%s): %v", name, err)
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
		wantIDs, wantSt, wantErr := built.Collect(hs, ws, opts)
		for name, ix := range opened {
			gotIDs, gotSt, gotErr := ix.Collect(hs, ws, opts)
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

// TestSaveSPKWRejectsWillard: the default d=2 substrate has polygon cells
// with no serialized form — saving must fail cleanly, not panic.
func TestSaveSPKWRejectsWillard(t *testing.T) {
	ds := testDataset(t, 5, 120, 2)
	ix, err := core.BuildSPKW(ds, core.SPKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveFileSPKW(filepath.Join(t.TempDir(), "w.kwflat"), ix); err == nil {
		t.Fatal("saving a Willard2D index succeeded; its cells have no serialized form")
	}
}

// TestOpenRefusesDamage flips one byte in every section in turn and demands
// the open fail — the page checksums cover the entire payload, so any
// corruption is a checksum error, and a truncated file is refused at parse.
func TestOpenRefusesDamage(t *testing.T) {
	ds := testDataset(t, 7, 300, 2)
	built, err := core.BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.kwflat")
	if err := SaveFileORPKW(clean, built); err != nil {
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
		_, _, err := OpenORPKW(bad, Options{})
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
	if _, _, err := OpenORPKW(trunc, Options{}); err == nil {
		t.Fatal("open of a truncated container succeeded")
	}

	// Kind confusion: an ORPKW image is not an SPKW image.
	if _, _, err := OpenSPKW(clean, Options{}); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("OpenSPKW of an ORPKW image: err %v, want ErrCorrupt", err)
	}
}

// reframe rewrites the container at path with edit applied to its sections,
// under fresh checksums — what a file from another build of this program, as
// opposed to a damaged one, looks like.
func reframe(t *testing.T, path string, edit func(id uint32, data []byte) []byte) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(raw)
	c, err := codec.ParseContainer(r, int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	var secs []codec.Section
	for _, s := range c.Sections {
		if s.ID == 0 {
			continue // the page-CRC table is rebuilt
		}
		data, err := c.SectionBytes(r, s.ID)
		if err != nil {
			t.Fatal(err)
		}
		secs = append(secs, codec.Section{ID: s.ID, Data: edit(s.ID, data)})
	}
	out := filepath.Join(t.TempDir(), "reframed.kwflat")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := codec.WriteContainer(f, c.Meta, secs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// Images of another version of the flat section set are refused, not read
// through a second decoder, with an error that names both versions; and a
// well-framed image whose rank columns or materialized lists are wrong is
// refused by validation, mapped or not — the lists as codec.ErrCorrupt.
func TestOpenRefusesOtherVersionsAndBadRanks(t *testing.T) {
	ds := testDataset(t, 9, 400, 2)
	built, err := core.BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	clean := filepath.Join(t.TempDir(), "clean.kwflat")
	if err := SaveFileORPKW(clean, built); err != nil {
		t.Fatal(err)
	}
	same := reframe(t, clean, func(_ uint32, data []byte) []byte { return data })
	if _, h, err := OpenORPKW(same, Options{}); err != nil {
		t.Fatalf("a faithfully reframed image must open: %v", err)
	} else {
		h.Close()
	}

	current := strconv.Itoa(codec.FlatImageVersion)
	// Version 1 had a three-value meta section and no version field.
	v1 := reframe(t, clean, func(id uint32, data []byte) []byte {
		if id == codec.SecFlatMeta {
			return data[:24]
		}
		return data
	})
	if _, _, err := OpenORPKW(v1, Options{}); err == nil ||
		!strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version "+current) {
		t.Fatalf("version 1 image: err %v, want a refusal naming versions 1 and %s", err, current)
	}
	// Version 2 packed sparse lists into delta blocks; 9 is yet to come.
	for _, v := range []uint64{2, 9} {
		other := reframe(t, clean, func(id uint32, data []byte) []byte {
			if id == codec.SecFlatMeta {
				data = slices.Clone(data)
				binary.LittleEndian.PutUint64(data[24:], v)
			}
			return data
		})
		read := "version " + strconv.FormatUint(v, 10)
		if _, _, err := OpenORPKW(other, Options{}); err == nil ||
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
	a, err := built.Framework().ExportFlat()
	if err != nil {
		t.Fatal(err)
	}
	// A sparse list of at least three ranks: handle h, ranks at l.Start.
	h := int32(slices.IndexFunc(a.MatLists, func(l core.FlatList) bool { return l.Rep == core.ListRanks && l.N >= 3 }))
	if h < 0 {
		t.Fatal("fixture has no sparse list of three ranks")
	}
	l, n := a.MatLists[h], int32(ds.Len())
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
		{"interval starts shifted", set(codec.SecFlatRankLo, 1, a.RankLo[1]+1), false},
		{"bitmap arena missing", func(id uint32, data []byte) []byte {
			if id == codec.SecFlatMatBits {
				return nil
			}
			return data
		}, false},
		{"descending pair", set(codec.SecFlatMatRanks, l.Start+2, a.MatRanks[l.Start]), true},
		{"duplicate rank", set(codec.SecFlatMatRanks, l.Start+1, a.MatRanks[l.Start]), true},
		{"rank below every interval", set(codec.SecFlatMatRanks, l.Start, -1), true},
		{"rank past every interval", set(codec.SecFlatMatRanks, l.Start+l.N-1, n), true},
		{"list runs off the arena", set(codec.SecFlatMatLists, 3*h, int32(len(a.MatRanks))-l.N+1), true},
		{"list length negative", set(codec.SecFlatMatLists, 3*h+1, -1), true},
		{"unknown representation tag", set(codec.SecFlatMatLists, 3*h+2, 2), true},
		{"handle column cut mid-triple", func(id uint32, data []byte) []byte {
			if id == codec.SecFlatMatLists {
				return data[:len(data)-4]
			}
			return data
		}, true},
	} {
		bad := reframe(t, clean, tc.edit)
		for _, o := range []Options{{}, {NoMmap: true}} {
			if _, _, err := OpenORPKW(bad, o); err == nil || tc.corrupt && !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("%s (NoMmap=%v): open returned %v", tc.name, o.NoMmap, err)
			}
		}
	}
}

// The dataset columns of a well-framed image are validated like its rank and
// list columns: each non-canonical edit (dataset's hostileColumns table, fed
// through a saved image) is refused as codec.ErrCorrupt by both index kinds,
// mapped or not — never a panic, never an index.
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
	}

	ds := testDataset(t, 13, 300, 3) // d=3: SP-KW's d=2 splitter has no flat form
	orp, err := core.BuildORPKW(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := core.BuildSPKW(ds, core.SPKWConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	orpPath, spPath := filepath.Join(dir, "orp.kwflat"), filepath.Join(dir, "sp.kwflat")
	if err := SaveFileORPKW(orpPath, orp); err != nil {
		t.Fatal(err)
	}
	if err := SaveFileSPKW(spPath, sp); err != nil {
		t.Fatal(err)
	}
	opens := map[string]func(string, Options) (*Handle, error){
		orpPath: func(p string, o Options) (*Handle, error) { _, h, err := OpenORPKW(p, o); return h, err },
		spPath:  func(p string, o Options) (*Handle, error) { _, h, err := OpenSPKW(p, o); return h, err },
	}
	p0, s0, w0 := ds.Columns()
	for _, tc := range hostile {
		p, s, w := tc.edit(slices.Clone(p0), slices.Clone(s0), slices.Clone(w0))
		for clean, open := range opens {
			bad := reframe(t, clean, func(id uint32, data []byte) []byte {
				switch id {
				case codec.SecFlatPoints:
					return codec.PutF64s(p)
				case codec.SecFlatDocStart:
					return codec.PutI64s(s)
				case codec.SecFlatDocWords:
					return codec.PutU32s(w)
				}
				return data
			})
			for _, o := range []Options{{}, {NoMmap: true}} {
				h, err := open(bad, o)
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
