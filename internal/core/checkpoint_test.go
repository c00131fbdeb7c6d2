package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"kwsc/internal/bitpack"
	"kwsc/internal/codec"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/pager"
)

// The checkpoint's writer held to its one reader: what WritePagedSnapshot
// writes, ReadPagedSnapshot reads back as written, and damage or a lie in
// any section is refused; the posting directory's checks; and the rank
// order held to the build's.

// readSnapshot is ReadPagedSnapshot on raw written to a fresh temporary
// file.
func readSnapshot(t testing.TB, raw []byte) (*Snapshot, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snapshot.ckpt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return ReadPagedSnapshot(path)
}

// resealSection is reseal with edit applied, in place, to section id alone.
func resealSection(t testing.TB, raw []byte, id uint32, edit func(data []byte)) []byte {
	t.Helper()
	return reseal(t, raw, nil, func(sid uint32, data []byte) []byte {
		if sid != id {
			return nil
		}
		out := slices.Clone(data)
		edit(out)
		return out
	})
}

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		K: 2, Dim: 2, LastSeq: 41, NextHandle: 9,
		Handles: []int64{0, 3, 8},
		Objs: dataset.MustNew([]dataset.Object{
			{Point: geom.Point{0.1, 0.2}, Doc: []dataset.Keyword{1, 3}},
			{Point: geom.Point{-4, 8.5}, Doc: []dataset.Keyword{0}},
			{Point: geom.Point{7, 7}, Doc: []dataset.Keyword{2, 3, 9}},
		}),
	}
}

func encodeSnapshot(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePagedSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testPagedSnapshot(seed int64, n int) *Snapshot {
	rng := rand.New(rand.NewSource(seed))
	s := &Snapshot{K: 2, Dim: 2, LastSeq: 41, NextHandle: int64(3*n + 10)}
	var objs []dataset.Object
	h := int64(-1)
	for i := 0; i < n; i++ {
		h += 1 + rng.Int63n(3)
		doc := map[dataset.Keyword]bool{}
		for len(doc) < 1+rng.Intn(4) {
			doc[dataset.Keyword(rng.Intn(24))] = true
		}
		obj := dataset.Object{Point: geom.Point{rng.Float64(), rng.NormFloat64()}}
		for kw := range doc {
			obj.Doc = append(obj.Doc, kw)
		}
		s.Handles = append(s.Handles, h)
		objs = append(objs, obj)
	}
	if n > 0 {
		s.Objs = dataset.MustNew(objs)
	}
	return s
}

func snapshotsEqual(t *testing.T, a, b *Snapshot) {
	t.Helper()
	if a.K != b.K || a.Dim != b.Dim || a.LastSeq != b.LastSeq || a.NextHandle != b.NextHandle {
		t.Fatalf("snapshot headers differ: %+v vs %+v", a, b)
	}
	if !slices.Equal(a.Handles, b.Handles) {
		t.Fatalf("handles differ: %v vs %v", a.Handles, b.Handles)
	}
	if (a.Objs == nil) != (b.Objs == nil) {
		t.Fatalf("one snapshot has objects, the other none")
	}
	if a.Objs == nil {
		return
	}
	ap, as, aw := a.Objs.Columns()
	bp, bs, bw := b.Objs.Columns()
	if !slices.Equal(ap, bp) || !slices.Equal(as, bs) || !slices.Equal(aw, bw) {
		t.Fatalf("object columns differ")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	got, err := readSnapshot(t, encodeSnapshot(t, s))
	if err != nil {
		t.Fatal(err)
	}
	snapshotsEqual(t, s, got)
}

func TestSnapshotEmpty(t *testing.T) {
	got, err := readSnapshot(t, encodeSnapshot(t, &Snapshot{K: 2, Dim: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Handles) != 0 || got.Objs != nil || got.Dim != 3 {
		t.Fatalf("empty snapshot mangled: %+v", got)
	}
}

func TestSnapshotRejectsUnsortedHandles(t *testing.T) {
	for _, hs := range [][]int64{{5, 2, 8}, {0, 3, 3}, {-1, 3, 8}, {0, 3}} {
		s := sampleSnapshot()
		s.Handles = hs
		if err := WritePagedSnapshot(new(bytes.Buffer), s); err == nil {
			t.Fatalf("handles %v accepted", hs)
		}
	}
}

func TestSnapshotChecksumDetectsFlips(t *testing.T) {
	raw := encodeSnapshot(t, sampleSnapshot())
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		corrupted := append([]byte(nil), raw...)
		pos := rng.Intn(len(corrupted))
		corrupted[pos] ^= 1 << uint(rng.Intn(8))
		if _, err := readSnapshot(t, corrupted); err == nil {
			t.Fatalf("trial %d: bit flip at %d undetected", trial, pos)
		}
	}
}

func TestSnapshotTruncation(t *testing.T) {
	raw := encodeSnapshot(t, sampleSnapshot())
	path := filepath.Join(t.TempDir(), "truncated.ckpt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for cut := len(raw) - 1; cut >= 0; cut-- {
		if err := os.Truncate(path, int64(cut)); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadPagedSnapshot(path); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("truncation at %d: err = %v", cut, err)
		}
	}
}

// A small container claiming a huge entry count must fail cheaply with
// ErrCorrupt, not attempt a proportional allocation (the OOM hardening).
func TestSnapshotHugeClaimedCount(t *testing.T) {
	meta := codec.PagedMeta{Kind: codec.PagedKindSnapshot, K: 2, Dim: 2, Count: 1 << 30, NextHandle: 1 << 40}
	var buf bytes.Buffer
	if err := codec.WriteContainer(&buf, meta.Encode(), []codec.Section{
		{ID: codec.SecHandles, Data: codec.Put([]int64{0})},
		{ID: codec.SecDocStart, Data: codec.Put([]int64{0, 1})},
		{ID: codec.SecRowHandles, Data: codec.Put([]int64{0})},
		{ID: codec.SecEntryRank, Data: codec.Put([]int32{0})},
		{ID: codec.SecTreeSpans, Data: codec.Put([]int32{1})},
		{ID: codec.SecTreeBoxes, Data: codec.Put([]float64{0, 0, 0, 0})},
	}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 8*pager.PageSize {
		t.Fatalf("container is %d bytes, meant to be small", buf.Len())
	}
	if _, err := readSnapshot(t, buf.Bytes()); !errors.Is(err, codec.ErrCorrupt) || errors.Is(err, errNoRankRows) || errors.Is(err, errNoRankTree) {
		t.Fatalf("huge claimed count: err = %v", err)
	}
}

func TestPagedSnapshotRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 300} {
		s := testPagedSnapshot(int64(n), n)
		var buf bytes.Buffer
		if err := WritePagedSnapshot(&buf, s); err != nil {
			t.Fatalf("n=%d: write: %v", n, err)
		}
		if buf.Len()%pager.PageSize != 0 {
			t.Fatalf("n=%d: container size %d not a page multiple", n, buf.Len())
		}
		got, err := readSnapshot(t, buf.Bytes())
		if err != nil {
			t.Fatalf("n=%d: read: %v", n, err)
		}
		snapshotsEqual(t, s, got)
	}
}

// TestPagedSnapshotDetectsCorruption flips one byte in every page in turn.
// The superblock and the page-CRC table verify through their own checksums
// when the container is parsed, so damage there is ErrCorrupt; every other
// page fails its own checksum, pager.ErrChecksum.
func TestPagedSnapshotDetectsCorruption(t *testing.T) {
	s := testPagedSnapshot(3, 200)
	var buf bytes.Buffer
	if err := WritePagedSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	c, err := codec.ParseContainer(bytes.NewReader(clean), int64(len(clean)))
	if err != nil {
		t.Fatal(err)
	}
	tOff, tLen, _ := c.Section(codec.SecPageCRC)
	for page := 0; page*pager.PageSize < len(clean); page++ {
		data := append([]byte(nil), clean...)
		data[page*pager.PageSize+137] ^= 0x20
		var want error = pager.ErrChecksum
		if off := int64(page * pager.PageSize); page == 0 || off >= tOff && off < tOff+tLen {
			want = codec.ErrCorrupt
		}
		if _, err := readSnapshot(t, data); !errors.Is(err, want) {
			t.Fatalf("corruption in page %d: err = %v, want %v", page, err, want)
		}
	}
	// Truncation at every page boundary must be rejected too.
	for sz := 0; sz < len(clean); sz += pager.PageSize {
		if _, err := readSnapshot(t, clean[:sz]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", sz)
		}
	}
}

// lyingRankSections are one-value edits of the entry -> rank column and the
// row handles of a snapshot of at least two entries that every checksum
// survives and a reader that takes the entries in must still refuse.
var lyingRankSections = []struct {
	name string
	id   uint32
	edit func(data []byte)
}{
	{"a rank repeated", codec.SecEntryRank, func(d []byte) { copy(d[4:], d[:4]) }},
	{"a rank past the count", codec.SecEntryRank, func(d []byte) { copy(d, codec.Put([]int32{1 << 20})) }},
	{"a negative rank", codec.SecEntryRank, func(d []byte) { copy(d, codec.Put([]int32{-1})) }},
	{"two rows swapped", codec.SecEntryRank, func(d []byte) {
		a, b := slices.Clone(d[:4]), slices.Clone(d[4:8])
		copy(d, b)
		copy(d[4:], a)
	}},
	{"a row handle not its entry's", codec.SecRowHandles, func(d []byte) { copy(d, codec.Put([]int64{1 << 40})) }},
	{"two row handles swapped", codec.SecRowHandles, func(d []byte) {
		a, b := slices.Clone(d[:8]), slices.Clone(d[8:16])
		copy(d, b)
		copy(d[8:], a)
	}},
}

// lyingTrees are edits of the stored tree of a two-dimensional snapshot of
// treeLieEntries entries, whose root and its two children are inner nodes
// over stored leaves, that every checksum survives and a reader that takes
// the entries in must still refuse: open for the tree's shape, verify for
// what a box of sound shape leaves out.
var lyingTrees = []struct {
	name string
	edit func(spans []int32, boxes []float64) ([]int32, []float64)
}{
	{"a box inside out", func(s []int32, b []float64) ([]int32, []float64) { b[0] = math.Inf(1); return s, b }},
	{"a NaN bound", func(s []int32, b []float64) ([]int32, []float64) { b[1] = math.NaN(); return s, b }},
	{"spans that do not sum", func(s []int32, b []float64) ([]int32, []float64) { s[len(s)-1]--; return s, b }},
	{"a child span at its parent's", func(s []int32, b []float64) ([]int32, []float64) { s[1] = s[0]; return s, b }},
	{"a root short of the count", func(s []int32, b []float64) ([]int32, []float64) { s[0]--; return s, b }},
	{"a record past the root's subtree", func(s []int32, b []float64) ([]int32, []float64) {
		return append(s, 1), append(b, b[:4]...)
	}},
	{"more records than the count allows", func(s []int32, b []float64) ([]int32, []float64) {
		for len(s) <= treeLieEntries {
			s, b = append(s, 1), append(b, b[:4]...)
		}
		return s, b
	}},
	// Hi set to Lo: boxes of sound shape, which only verify sees leave out
	// what they bound.
	{"the root's box shrunk to its low corner", func(s []int32, b []float64) ([]int32, []float64) {
		copy(b[2:4], b[:2])
		return s, b
	}},
	{"a leaf's box shrunk to its low corner", func(s []int32, b []float64) ([]int32, []float64) {
		copy(b[len(b)-2:], b[len(b)-4:len(b)-2])
		return s, b
	}},
}

// treeLieEntries is the size of the snapshot lyingTrees edit: over two
// cells, so that the root's children are inner nodes too.
const treeLieEntries = 600

// resealTree is reseal with edit applied to the stored tree.
func resealTree(t testing.TB, raw []byte, edit func(spans []int32, boxes []float64) ([]int32, []float64)) []byte {
	t.Helper()
	c, err := codec.ParseContainer(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := c.SectionBytes(bytes.NewReader(raw), codec.SecTreeSpans)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := c.SectionBytes(bytes.NewReader(raw), codec.SecTreeBoxes)
	if err != nil {
		t.Fatal(err)
	}
	spans, boxes := edit(codec.Get[int32](sb), codec.Get[float64](bb))
	return reseal(t, raw, nil, func(id uint32, _ []byte) []byte {
		switch id {
		case codec.SecTreeSpans:
			return codec.Put(spans)
		case codec.SecTreeBoxes:
			return codec.Put(boxes)
		}
		return nil
	})
}

// TestPagedSnapshotRefusesLyingRankSections: read as recovery into memory
// reads it, a snapshot holds the entry -> rank column to a permutation (open),
// every row to its entry's handle (entries), the stored tree to its shape
// (open) and every box to what it bounds (verify).
func TestPagedSnapshotRefusesLyingRankSections(t *testing.T) {
	golden := encodeSnapshot(t, testPagedSnapshot(1, treeLieEntries))
	for _, lie := range lyingRankSections {
		raw := resealSection(t, golden, lie.id, lie.edit)
		if _, err := readSnapshot(t, raw); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", lie.name, err)
		}
	}
	for _, lie := range lyingTrees {
		if _, err := readSnapshot(t, resealTree(t, golden, lie.edit)); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", lie.name, err)
		}
	}
	raw := resealTree(t, golden, func(s []int32, b []float64) ([]int32, []float64) { return s, b })
	if _, err := readSnapshot(t, raw); err != nil {
		t.Fatalf("re-sealed unchanged: %v", err)
	}
}

// TestPagedSnapshotRefusesCellBoxes: a checkpoint as the cell-snapped order
// wrote it — one box per cell of ranks in section 10, no stored tree — is
// refused by name, as is one that lacks either tree section.
func TestPagedSnapshotRefusesCellBoxes(t *testing.T) {
	golden := encodeSnapshot(t, testPagedSnapshot(1, 9))
	c, err := codec.ParseContainer(bytes.NewReader(golden), int64(len(golden)))
	if err != nil {
		t.Fatal(err)
	}
	for name, drop := range map[string][]uint32{
		"cell boxes": {codec.SecTreeSpans, codec.SecTreeBoxes},
		"no spans":   {codec.SecTreeSpans},
		"no boxes":   {codec.SecTreeBoxes},
	} {
		var secs []codec.Section
		for _, sec := range c.Sections[1:] {
			data, err := c.SectionBytes(bytes.NewReader(golden), sec.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(drop, sec.ID) {
				secs = append(secs, codec.Section{ID: sec.ID, Data: data})
			}
		}
		if name == "cell boxes" {
			secs = append(secs, codec.Section{ID: 10, Data: codec.Put([]float64{-10, -10, 10, 10})})
		}
		var out bytes.Buffer
		if err := codec.WriteContainer(&out, c.Meta, secs); err != nil {
			t.Fatal(err)
		}
		if _, err := readSnapshot(t, out.Bytes()); !errors.Is(err, errNoRankTree) {
			t.Fatalf("%s: err = %v, want %v", name, err, errNoRankTree)
		}
	}
}

// FuzzReadPagedSnapshot asserts the one checkpoint reader — superblock,
// section directory, page-CRC table, structural checks at open, Verify,
// Entries — is total over arbitrary bytes: read or fail, never panic or
// over-allocate; and what it accepts re-encodes and reads back to the same
// snapshot.
func FuzzReadPagedSnapshot(f *testing.F) {
	var buf bytes.Buffer
	if err := WritePagedSnapshot(&buf, testPagedSnapshot(1, 9)); err != nil {
		f.Fatal(err)
	}
	golden := buf.Bytes()
	f.Add(golden)
	f.Add([]byte("KWC2"))
	f.Add(golden[:pager.PageSize])
	for _, pos := range []int{5, 13, 90, pager.PageSize + 8, 2 * pager.PageSize, len(golden) - 9} {
		flip := append([]byte(nil), golden...)
		flip[pos] ^= 0x41
		f.Add(flip)
		f.Add(flip[:pos])
	}
	// The rank sections, the tree and the rows, damaged where only the
	// structural checks can see it: the sections re-sealed under fresh
	// checksums with a rank repeated or out of range, two rows or two row
	// handles swapped, a box turned inside out or leaving out what it
	// bounds, spans that do not add up; and a page of each section by rank
	// flipped in place.
	for _, lie := range lyingRankSections {
		f.Add(resealSection(f, golden, lie.id, lie.edit))
	}
	treeGolden := encodeSnapshot(f, testPagedSnapshot(1, treeLieEntries))
	for _, lie := range lyingTrees {
		f.Add(resealTree(f, treeGolden, lie.edit))
	}
	c, err := codec.ParseContainer(bytes.NewReader(golden), int64(len(golden)))
	if err != nil {
		f.Fatal(err)
	}
	for _, id := range []uint32{codec.SecEntryRank, codec.SecTreeSpans, codec.SecTreeBoxes, codec.SecRowHandles, codec.SecDocStart, codec.SecDocWords} {
		off, _, _ := c.Section(id)
		flip := append([]byte(nil), golden...)
		flip[off+5] ^= 0x41
		f.Add(flip)
	}
	// The same container format frames flat-index images: seed one that
	// carries the rank columns (rank -> id, child and pivot counts, a bitmap
	// list, a sparse list and the {n, rep} handles that tag them), whole and
	// damaged, so the corpus reaches the directory and checksum paths with
	// those section ids too.
	var flat bytes.Buffer
	if err := codec.WriteContainer(&flat, codec.PagedMeta{Kind: codec.PagedKindFlatORPKW, K: 2, Dim: 2, Count: 3}.Encode(), []codec.Section{
		{ID: codec.SecFlatMeta, Data: codec.Put([]uint64{1, 2, 1, codec.FlatImageVersion})},
		{ID: codec.SecFlatRankIDs, Data: codec.Put([]int32{2, 0, 1})},
		{ID: codec.SecFlatChildCount, Data: codec.Put([]int32{0})},
		{ID: codec.SecFlatPivotCount, Data: codec.Put([]int32{3})},
		{ID: codec.SecFlatMatHandles, Data: codec.Put([]int32{2, 1, 2, 0})},
		{ID: codec.SecFlatMatBits, Data: codec.Put([]uint64{0b101})},
		{ID: codec.SecFlatMatRanks, Data: codec.Put([]int32{0, 2})},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(flat.Bytes())
	for _, pos := range []int{13, 90, 2 * pager.PageSize, flat.Len() - pager.PageSize + 3} {
		flip := append([]byte(nil), flat.Bytes()...)
		flip[pos] ^= 0x41
		f.Add(flip)
	}
	dir := f.TempDir()
	read := func(t *testing.T, raw []byte) (*Snapshot, error) {
		path := filepath.Join(dir, "fuzz.ckpt")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return ReadPagedSnapshot(path)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := read(t, data)
		if err != nil {
			return
		}
		// Accepted input must re-encode and read back to the same snapshot.
		back, err := read(t, encodeSnapshot(t, got))
		if err != nil {
			t.Fatalf("re-encoded snapshot fails to read: %v", err)
		}
		snapshotsEqual(t, got, back)
	})
}

// TestValidateRejectsCorruptHandles holds parsePostings, the one check of a
// posting directory, to every rule a cursor or the totals rely on: a
// directory of three rank lists over 300 ranks passes as written, and each
// one-value lie in a list handle, a block or the vocabulary is ErrCorrupt.
func TestValidateRejectsCorruptHandles(t *testing.T) {
	const count = 300
	var arena bitpack.PackedLists
	var lists []bitpack.List
	for _, step := range []int32{1, 3, 7} {
		var ranks []int32
		for r := int32(0); r < count; r += step {
			ranks = append(ranks, r)
		}
		lists = append(lists, arena.Append(ranks))
	}
	payload, blocks := arena.Raw()
	docWords := int64(lists[0].N + lists[1].N + lists[2].N)
	parse := func(vocab []uint32, lists []bitpack.List, blocks []bitpack.Block, docWords int64) error {
		listsB, blocksB := encodePostings(lists, blocks)
		_, err := parsePostings(codec.Put(vocab), listsB, blocksB, int64(len(payload)), count, docWords)
		return err
	}
	vocab := []uint32{4, 9, 12}
	if err := parse(vocab, lists, blocks, docWords); err != nil {
		t.Fatalf("the directory as written: %v", err)
	}
	list := func(edit func(l *bitpack.List)) []bitpack.List {
		out := slices.Clone(lists)
		edit(&out[1])
		return out
	}
	block := func(edit func(b []bitpack.Block)) []bitpack.Block {
		out := slices.Clone(blocks)
		edit(out)
		return out
	}
	for _, c := range []struct {
		name   string
		vocab  []uint32
		lists  []bitpack.List
		blocks []bitpack.Block
	}{
		{"a list before the directory", vocab, list(func(l *bitpack.List) { l.Block = -1 }), blocks},
		{"a list past the directory", vocab, list(func(l *bitpack.List) { l.NumBlocks = 99 }), blocks},
		{"a list claiming a rank more", vocab, list(func(l *bitpack.List) { l.N++ }), blocks},
		{"an empty block", vocab, lists, block(func(b []bitpack.Block) { b[0].N = 0 })},
		{"a block past BlockSize", vocab, lists, block(func(b []bitpack.Block) { b[0].N = bitpack.BlockSize + 1 })},
		{"33-bit deltas", vocab, lists, block(func(b []bitpack.Block) { b[0].W = 33 })},
		{"a payload past the section", vocab, lists, block(func(b []bitpack.Block) { b[len(b)-1].Off = int32(len(payload)) / 8 })},
		{"a negative rank", vocab, lists, block(func(b []bitpack.Block) { b[0].First = -1 })},
		{"a rank past the count", vocab, lists, block(func(b []bitpack.Block) { b[1].Max = count })},
		{"a block whose ranks run backwards", vocab, lists, block(func(b []bitpack.Block) { b[1].First = b[1].Max + 1 })},
		{"two blocks of a list swapped", vocab, lists, block(func(b []bitpack.Block) { b[0], b[1] = b[1], b[0] })},
		{"a keyword repeated", []uint32{4, 4, 12}, lists, blocks},
		{"a list short of a keyword", vocab[:2], lists, blocks},
	} {
		if err := parse(c.vocab, c.lists, c.blocks, docWords); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
	}
	if err := parse(vocab, lists, blocks, docWords+1); !errors.Is(err, codec.ErrCorrupt) {
		t.Errorf("a posting short of the document words: err = %v, want ErrCorrupt", err)
	}
	listsB, blocksB := encodePostings(lists, blocks)
	for name, args := range map[string][3][]byte{
		"a vocabulary cut mid-keyword": {codec.Put(vocab)[1:], listsB, blocksB},
		"a list cut mid-handle":        {codec.Put(vocab), listsB[4:], blocksB},
		"a block cut mid-entry":        {codec.Put(vocab), listsB, blocksB[:len(blocksB)-4]},
		"unknown block flags":          {codec.Put(vocab), listsB, append(slices.Clone(blocksB[:12]), 1, 0, 0, 1)},
	} {
		if _, err := parsePostings(args[0], args[1], args[2], int64(len(payload)), count, docWords); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := parsePostings(codec.Put(vocab), listsB, blocksB, int64(len(payload))-4, count, docWords); !errors.Is(err, codec.ErrCorrupt) {
		t.Errorf("a payload cut mid-word: err = %v, want ErrCorrupt", err)
	}
}

// TestCheckpointRanksAsBuildORPKW is the one-order invariant: whatever the
// entries — uniform, tied, all equal, infinite or signed-zero coordinates,
// one document heavier than all the others together, which empties one side
// of the root's split — rank r of a checkpoint is rank r of BuildORPKW over
// the same entries, and the stored tree is the build's cut at one cell: in
// preorder, the root and every node whose parent spans more than a cell,
// each with its span and its tight box.
func TestCheckpointRanksAsBuildORPKW(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	uniform := func(int, int) float64 { return rng.Float64() }
	for dim := 1; dim <= 4; dim++ {
		cell := cellSize(dim)
		for _, n := range []int{1, 8, 9, cell - 1, cell + 1, 7*cell + 3, 1 << 15} {
			for _, c := range []struct {
				name  string
				coord func(i, a int) float64
			}{
				{"uniform", uniform},
				{"ties", func(int, int) float64 { return float64(rng.Intn(3)) }},
				{"equal", func(int, int) float64 { return -2.5 }},
				{"non-finite", func(int, int) float64 {
					return []float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, rng.Float64()}[rng.Intn(5)]
				}},
				// Entry 0 lies below every other on every axis and outweighs them
				// all: it is the root's pivot, with nothing on its left.
				{"skewed", func(i, a int) float64 {
					if i == 0 {
						return -1
					}
					return rng.Float64()
				}},
			} {
				what := fmt.Sprintf("d=%d n=%d %s", dim, n, c.name)
				objs := make([]dataset.Object, n)
				handles := make([]int64, n)
				words := 0
				for i := range objs {
					p := make(geom.Point, dim)
					for a := range p {
						p[a] = c.coord(i, a)
					}
					doc := []dataset.Keyword{dataset.Keyword(rng.Intn(4))}
					if rng.Intn(2) == 0 {
						doc = append(doc, dataset.Keyword(4+rng.Intn(4)))
					}
					objs[i], handles[i] = dataset.Object{Point: p, Doc: doc}, int64(i)
					words += len(doc)
				}
				if c.name == "skewed" {
					objs[0].Doc = make([]dataset.Keyword, words+1)
					for w := range objs[0].Doc {
						objs[0].Doc[w] = dataset.Keyword(w)
					}
				}
				snap := &Snapshot{K: 2, Dim: dim, Handles: handles, Objs: dataset.MustNew(objs), NextHandle: int64(n)}
				ix, err := BuildORPKW(snap.Objs, 2)
				if err != nil {
					t.Fatal(err)
				}
				fw := ix.fw
				b, err := OpenPagedBase(writePagedCheckpoint(t, t.TempDir(), "order.ckpt", snap), PagedBaseOptions{})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				r, err := b.getReader()
				if err != nil {
					t.Fatal(err)
				}
				for rank, e := range fw.ids {
					if h := r.handleAt(int64(rank)); h != int64(e) {
						t.Fatalf("%s: rank %d holds entry %d, BuildORPKW ranks entry %d there", what, rank, h, e)
					}
				}
				b.putReader(r)
				var cut []int32 // the build's nodes the checkpoint stores, in preorder
				var walk func(u int32)
				walk = func(u int32) {
					cut = append(cut, u)
					if int(fw.rankSpan[u]) > cell {
						for v := fw.childFirst[u]; v < fw.childFirst[u]+fw.childCount[u]; v++ {
							walk(v)
						}
					}
				}
				walk(0)
				if len(b.spans) != len(cut) {
					t.Fatalf("%s: %d stored nodes, the build's tree cut at one cell has %d", what, len(b.spans), len(cut))
				}
				for i, u := range cut {
					box, want := b.tree[2*dim*i:2*dim*(i+1)], fw.boxes[2*dim*int(u):2*dim*(int(u)+1)]
					if b.spans[i] != fw.rankSpan[u] || !slices.Equal(box, want) {
						t.Fatalf("%s: stored node %d spans %d ranks in %v, the build's %d spans %d in %v", what, i, b.spans[i], box, u, fw.rankSpan[u], want)
					}
				}
				if c.name == "skewed" && n > cell && b.next[1] != b.next[0] {
					t.Fatalf("%s: the root has two children, the pivot was meant to empty one side", what)
				}
				if err := b.verify(); err != nil {
					t.Fatalf("%s: verify: %v", what, err)
				}
				b.Close()
			}
		}
	}
}

// BenchmarkWritePagedSnapshot times the checkpoint writer over paged-cold's
// corpus at the sizes of rw-mixed's automatic checkpoints (2 000 entries)
// and of paged-cold's checkpoint (80 000), and between them.
func BenchmarkWritePagedSnapshot(b *testing.B) {
	for _, n := range []int{2_000, 10_000, 80_000} {
		snap, _ := pagedColdCorpus(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := WritePagedSnapshot(&buf, snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
