package core

import (
	"bytes"
	"cmp"
	"errors"
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
// order held to its definition.

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
	}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 8*pager.PageSize {
		t.Fatalf("container is %d bytes, meant to be small", buf.Len())
	}
	if _, err := readSnapshot(t, buf.Bytes()); !errors.Is(err, codec.ErrCorrupt) || errors.Is(err, errNoRankRows) {
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

// lyingRankSections are one-value edits of the entry -> rank column, the row
// handles and the cell boxes of a snapshot of at least two entries in two
// dimensions that every checksum survives and a reader that takes the
// entries in must still refuse.
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
	{"a box inside out", codec.SecCellBoxes, func(d []byte) { copy(d, codec.Put([]float64{math.Inf(1)})) }},
	{"a box that leaves out its points", codec.SecCellBoxes, func(d []byte) { copy(d[16:], codec.Put([]float64{-1e9, -1e9})) }},
	// Hi set to Lo: a box of sound shape, which only Verify sees leave out
	// the cell's other points.
	{"a sound box shrunk to its low corner", codec.SecCellBoxes, func(d []byte) { copy(d[16:32], d[:16]) }},
	{"a NaN bound", codec.SecCellBoxes, func(d []byte) { copy(d[8:], codec.Put([]float64{math.NaN()})) }},
}

// TestPagedSnapshotRefusesLyingRankSections: read as recovery into memory
// reads it, a snapshot holds the entry -> rank column to a permutation (open),
// every row to its entry's handle (Entries) and every cell box to its cell's
// points (open for its shape, Verify for its points).
func TestPagedSnapshotRefusesLyingRankSections(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePagedSnapshot(&buf, testPagedSnapshot(1, 9)); err != nil {
		t.Fatal(err)
	}
	for _, lie := range lyingRankSections {
		raw := resealSection(t, buf.Bytes(), lie.id, lie.edit)
		if _, err := readSnapshot(t, raw); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", lie.name, err)
		}
	}
	raw := resealSection(t, buf.Bytes(), codec.SecEntryRank, func([]byte) {})
	if _, err := readSnapshot(t, raw); err != nil {
		t.Fatalf("re-sealed unchanged: %v", err)
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
	// The rank sections and the rows, damaged where only the structural
	// checks can see it: the sections re-sealed under fresh checksums with a
	// rank repeated or out of range, two rows or two row handles swapped, a
	// box turned inside out or leaving out its cell's points; and a page of
	// each section by rank flipped in place.
	for _, lie := range lyingRankSections {
		f.Add(resealSection(f, golden, lie.id, lie.edit))
	}
	c, err := codec.ParseContainer(bytes.NewReader(golden), int64(len(golden)))
	if err != nil {
		f.Fatal(err)
	}
	for _, id := range []uint32{codec.SecEntryRank, codec.SecCellBoxes, codec.SecRowHandles, codec.SecDocStart, codec.SecDocWords} {
		off, _, _ := c.Section(id)
		flip := append([]byte(nil), golden...)
		flip[off+5] ^= 0x41
		f.Add(flip)
	}
	// The same container format frames flat-index images: seed one that
	// carries the rank columns (rank -> id, interval starts, a bitmap list, a
	// sparse list and the handles that tag them), whole and damaged, so the
	// corpus reaches the directory and checksum paths with those section ids
	// too.
	var flat bytes.Buffer
	if err := codec.WriteContainer(&flat, codec.PagedMeta{Kind: codec.PagedKindFlatORPKW, K: 2, Dim: 2, Count: 3}.Encode(), []codec.Section{
		{ID: codec.SecFlatMeta, Data: codec.Put([]uint64{1, 2, 1, codec.FlatImageVersion})},
		{ID: codec.SecFlatRankIDs, Data: codec.Put([]int32{2, 0, 1})},
		{ID: codec.SecFlatRankLo, Data: codec.Put([]int32{0})},
		{ID: codec.SecFlatPivotCount, Data: codec.Put([]int32{3})},
		{ID: codec.SecFlatMatLists, Data: codec.Put([]int32{0, 2, 1, 0, 2, 0})},
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

// refLeafOrder is kdLeafOrder's definition run literally: at every node,
// sort the entries on the widest coordinate of their bounding box, ties by
// entry index, and cut at the cell multiple cellSplit names; a cell lists its
// entries ascending.
func refLeafOrder(points []float64, dim, n int) []int32 {
	cell := cellSize(dim)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	var split func(lo, hi int)
	split = func(lo, hi int) {
		part := order[lo*cell : min(hi*cell, n)]
		if hi-lo == 1 {
			slices.Sort(part)
			return
		}
		axis, widest := 0, math.Inf(-1)
		for a := 0; a < dim; a++ {
			mn, mx := math.Inf(1), math.Inf(-1)
			for _, e := range part {
				v := points[int(e)*dim+a]
				mn, mx = min(mn, v), max(mx, v)
			}
			if w := mx - mn; w > widest {
				axis, widest = a, w
			}
		}
		slices.SortFunc(part, func(x, y int32) int {
			return cmp.Or(cmp.Compare(dataset.RankKey(points[int(x)*dim+axis]), dataset.RankKey(points[int(y)*dim+axis])), cmp.Compare(x, y))
		})
		mid := cellSplit(lo, hi)
		split(lo, mid)
		split(mid, hi)
	}
	if n > 0 {
		split(0, (n+cell-1)/cell)
	}
	return order
}

// TestKDLeafOrderMatchesDefinition: the presorted build computes exactly the
// order its definition gives — on uniform points, on heavy ties, on one value
// everywhere — and its boxes are the cells' tight bounding boxes.
func TestKDLeafOrderMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for dim := 1; dim <= 4; dim++ {
		cell := cellSize(dim)
		for _, n := range []int{0, 1, cell - 1, cell, cell + 1, 7*cell + 3, 16 * cell} {
			for name, coord := range map[string]func() float64{
				"uniform": rng.Float64,
				"ties":    func() float64 { return float64(rng.Intn(3)) },
				"equal":   func() float64 { return -2.5 },
				"signs":   func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)) },
			} {
				points := make([]float64, n*dim)
				for i := range points {
					points[i] = coord()
				}
				got, boxes := kdLeafOrder(points, dim, n)
				if want := refLeafOrder(points, dim, n); !slices.Equal(got, want) {
					t.Fatalf("d=%d n=%d %s: rank order differs from the definition's", dim, n, name)
				}
				for c := 0; c*cell < n; c++ {
					for a := 0; a < dim; a++ {
						mn, mx := math.Inf(1), math.Inf(-1)
						for _, e := range got[c*cell : min((c+1)*cell, n)] {
							mn, mx = min(mn, points[int(e)*dim+a]), max(mx, points[int(e)*dim+a])
						}
						if lo, hi := boxes[2*dim*c+a], boxes[2*dim*c+dim+a]; lo != mn || hi != mx {
							t.Fatalf("d=%d n=%d %s: cell %d axis %d box [%v,%v], points span [%v,%v]", dim, n, name, c, a, lo, hi, mn, mx)
						}
					}
				}
			}
		}
	}
}

// TestKDLeafOrderNonFinite: infinite coordinates and both zeros keep the
// order a permutation, inside their cells' boxes.
func TestKDLeafOrderNonFinite(t *testing.T) {
	const dim = 2
	n := 3*cellSize(dim) + 1
	rng := rand.New(rand.NewSource(5))
	points := make([]float64, n*dim)
	for i := range points {
		points[i] = rng.Float64()
	}
	points[2*10], points[2*11+1], points[2*12] = math.Inf(-1), math.Inf(1), math.Inf(-1)
	points[2*13+1], points[2*14+1] = math.Copysign(0, -1), 0
	got, boxes := kdLeafOrder(points, dim, n)
	seen := make([]bool, n)
	for r, e := range got {
		if seen[e] {
			t.Fatalf("entry %d ranked twice", e)
		}
		seen[e] = true
		c := r / cellSize(dim)
		for a := 0; a < dim; a++ {
			v, lo, hi := points[int(e)*dim+a], boxes[2*dim*c+a], boxes[2*dim*c+dim+a]
			if !(lo <= v && v <= hi) {
				t.Fatalf("rank %d: coordinate %v outside cell %d's [%v,%v]", r, v, c, lo, hi)
			}
		}
	}
}
