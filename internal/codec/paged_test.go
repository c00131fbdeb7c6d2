package codec

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/pager"
)

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
		got, err := ReadPagedSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("n=%d: read: %v", n, err)
		}
		snapshotsEqual(t, s, got)
	}
}

func TestPagedSnapshotDetectsCorruption(t *testing.T) {
	s := testPagedSnapshot(3, 200)
	var buf bytes.Buffer
	if err := WritePagedSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	// Flip one byte in every page in turn: each must be rejected.
	for page := 0; page*pager.PageSize < len(clean); page++ {
		data := append([]byte(nil), clean...)
		data[page*pager.PageSize+137] ^= 0x20
		if _, err := ReadPagedSnapshot(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corruption in page %d accepted (err=%v)", page, err)
		}
	}
	// Truncation at every page boundary must be rejected too.
	for sz := 0; sz < len(clean); sz += pager.PageSize {
		if _, err := ReadPagedSnapshot(bytes.NewReader(clean[:sz]), int64(sz)); err == nil {
			t.Fatalf("truncation to %d bytes accepted", sz)
		}
	}
}

func TestContainerRoundTrip(t *testing.T) {
	meta := PagedMeta{Kind: 9, K: 3, Dim: 4, Count: 77, LastSeq: 5, NextHandle: 80}
	secs := []Section{
		{ID: 40, Data: bytes.Repeat([]byte{0xab}, 3)},
		{ID: 41, Data: nil},
		{ID: 42, Data: bytes.Repeat([]byte{0x11}, 2*pager.PageSize+5)},
	}
	var buf bytes.Buffer
	if err := WriteContainer(&buf, meta.Encode(), secs); err != nil {
		t.Fatal(err)
	}
	c, err := ParseContainer(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if got := ParsePagedMeta(c.Meta); got != meta {
		t.Fatalf("meta round-trip: %+v vs %+v", got, meta)
	}
	if err := c.VerifyAllPages(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, s := range secs {
		b, err := c.SectionBytes(bytes.NewReader(buf.Bytes()), s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, s.Data) {
			t.Fatalf("section %d round-trip differs", s.ID)
		}
		off, _, ok := c.Section(s.ID)
		if !ok || off%pager.PageSize != 0 {
			t.Fatalf("section %d at unaligned offset %d", s.ID, off)
		}
	}
	if _, _, ok := c.Section(99); ok {
		t.Fatal("phantom section found")
	}
}

func TestWriteContainerRejectsBadSections(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteContainer(&buf, [64]byte{}, []Section{{ID: 0}}); err == nil {
		t.Fatal("reserved id 0 accepted")
	}
	if err := WriteContainer(&buf, [64]byte{}, []Section{{ID: 7}, {ID: 7}}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	many := make([]Section, MaxSections)
	for i := range many {
		many[i].ID = uint32(i + 1)
	}
	if err := WriteContainer(&buf, [64]byte{}, many); err == nil {
		t.Fatal("directory overflow accepted")
	}
}

// resealEdited rewrites a snapshot container with edit applied to section
// id, under fresh checksums: what is left to refuse it is the structural
// validation.
func resealEdited(t testing.TB, raw []byte, id uint32, edit func(data []byte)) []byte {
	t.Helper()
	c, err := ParseContainer(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	var secs []Section
	for _, s := range c.Sections[1:] {
		data, err := c.SectionBytes(bytes.NewReader(raw), s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if s.ID == id {
			edit(data)
		}
		secs = append(secs, Section{s.ID, data})
	}
	var out bytes.Buffer
	if err := WriteContainer(&out, c.Meta, secs); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// lyingRankSections are one-value edits of the entry -> rank column, the row
// handles and the cell boxes of a snapshot of at least two entries in two
// dimensions that every checksum survives and ReadPagedSnapshot must still
// refuse.
var lyingRankSections = []struct {
	name string
	id   uint32
	edit func(data []byte)
}{
	{"a rank repeated", SecEntryRank, func(d []byte) { copy(d[4:], d[:4]) }},
	{"a rank past the count", SecEntryRank, func(d []byte) { copy(d, putI32s([]int32{1 << 20})) }},
	{"a negative rank", SecEntryRank, func(d []byte) { copy(d, putI32s([]int32{-1})) }},
	{"two rows swapped", SecEntryRank, func(d []byte) {
		a, b := slices.Clone(d[:4]), slices.Clone(d[4:8])
		copy(d, b)
		copy(d[4:], a)
	}},
	{"a row handle not its entry's", SecRowHandles, func(d []byte) { copy(d, putI64s([]int64{1 << 40})) }},
	{"two row handles swapped", SecRowHandles, func(d []byte) {
		a, b := slices.Clone(d[:8]), slices.Clone(d[8:16])
		copy(d, b)
		copy(d[8:], a)
	}},
	{"a box inside out", SecCellBoxes, func(d []byte) { copy(d, putF64s([]float64{math.Inf(1)})) }},
	{"a box that leaves out its points", SecCellBoxes, func(d []byte) { copy(d[16:], putF64s([]float64{-1e9, -1e9})) }},
	{"a NaN bound", SecCellBoxes, func(d []byte) { copy(d[8:], putF64s([]float64{math.NaN()})) }},
}

// TestPagedSnapshotRefusesLyingRankSections: the decoding reader reads every
// page anyway, so it holds the entry -> rank column to a permutation, every
// row to its entry's handle and every cell box to its cell's points.
func TestPagedSnapshotRefusesLyingRankSections(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePagedSnapshot(&buf, testPagedSnapshot(1, 9)); err != nil {
		t.Fatal(err)
	}
	for _, lie := range lyingRankSections {
		raw := resealEdited(t, buf.Bytes(), lie.id, lie.edit)
		if _, err := ReadPagedSnapshot(bytes.NewReader(raw), int64(len(raw))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", lie.name, err)
		}
	}
	raw := resealEdited(t, buf.Bytes(), SecEntryRank, func([]byte) {})
	if _, err := ReadPagedSnapshot(bytes.NewReader(raw), int64(len(raw))); err != nil {
		t.Fatalf("re-sealed unchanged: %v", err)
	}
}

// FuzzReadPagedSnapshot asserts the KWCP2 parser chain — superblock,
// section directory, page-CRC table, column decode — is total over
// arbitrary bytes: parse or fail, never panic or over-allocate.
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
		f.Add(resealEdited(f, golden, lie.id, lie.edit))
	}
	c, err := ParseContainer(bytes.NewReader(golden), int64(len(golden)))
	if err != nil {
		f.Fatal(err)
	}
	for _, id := range []uint32{SecEntryRank, SecCellBoxes, SecRowHandles, SecDocStart, SecDocWords} {
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
	if err := WriteContainer(&flat, PagedMeta{Kind: PagedKindFlatORPKW, K: 2, Dim: 2, Count: 3}.Encode(), []Section{
		{SecFlatMeta, putU64s([]uint64{1, 2, 1, FlatImageVersion})},
		{SecFlatRankIDs, putI32s([]int32{2, 0, 1})},
		{SecFlatRankLo, putI32s([]int32{0})},
		{SecFlatPivotCount, putI32s([]int32{3})},
		{SecFlatMatLists, putI32s([]int32{0, 2, 1, 0, 2, 0})},
		{SecFlatMatBits, putU64s([]uint64{0b101})},
		{SecFlatMatRanks, putI32s([]int32{0, 2})},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(flat.Bytes())
	for _, pos := range []int{13, 90, 2 * pager.PageSize, flat.Len() - pager.PageSize + 3} {
		flip := append([]byte(nil), flat.Bytes()...)
		flip[pos] ^= 0x41
		f.Add(flip)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadPagedSnapshot(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		// Accepted input must re-encode and re-parse to the same snapshot.
		var out bytes.Buffer
		if err := WritePagedSnapshot(&out, got); err != nil {
			t.Fatalf("accepted snapshot fails to re-encode: %v", err)
		}
		back, err := ReadPagedSnapshot(bytes.NewReader(out.Bytes()), int64(out.Len()))
		if err != nil {
			t.Fatalf("re-encoded snapshot fails to parse: %v", err)
		}
		snapshotsEqual(t, got, back)
	})
}
