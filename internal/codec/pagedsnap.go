package codec

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"kwsc/internal/bitpack"
	"kwsc/internal/dataset"
)

// Snapshot is the payload of a durability checkpoint: the live entry set of
// a dynamic index — a handle column beside the dataset's three — together
// with the log position the checkpoint supersedes and the handle watermark
// recovery must resume from. On disk it is a KWCP2 container the paged base
// answers queries from without decoding it: every row — point, handle,
// document — in rank order (the kd leaf order of rankorder.go), one bounding
// box per cell of ranks, an inverted index (sorted vocabulary, bitpacked
// postings of *ranks*), and beside them the ascending handle column with the
// entry -> rank column that leads from a handle to its row.
type Snapshot struct {
	K          int              // query keyword arity of the index
	Dim        int              // point dimensionality
	LastSeq    uint64           // last WAL sequence number the snapshot covers
	NextHandle int64            // handle the next insertion will be assigned
	Handles    []int64          // strictly ascending; Handles[i] names object i of Objs
	Objs       *dataset.Dataset // nil when the snapshot is empty
}

// Section IDs of a snapshot container (SecPageCRC is the container's own
// table).
const (
	SecPageCRC    = 0
	SecHandles    = 1  // []int64 by entry: strictly increasing, count values
	SecPoints     = 2  // []float64 by rank, count x dim, row-major
	SecDocStart   = 3  // []int64 by rank, count+1 prefix offsets into SecDocWords
	SecDocWords   = 4  // []uint32, concatenated sorted documents, by rank
	SecVocab      = 5  // []uint32, sorted distinct keywords
	SecPostLists  = 6  // []int32 triples {block, numBlocks, n} per vocab entry
	SecPostBlocks = 7  // []int32 quads {off, first, max, n|w<<16} per block, ids are ranks
	SecPostWords  = 8  // []uint64 bitpack payload
	SecRankEntry  = 9  // retired: rank -> entry beside entry-ordered documents; never read, never reused
	SecCellBoxes  = 10 // []float64, 2*dim per cell of CellSize(dim) ranks: Lo then Hi
	SecRowHandles = 11 // []int64 by rank: rank -> handle
	SecEntryRank  = 12 // []int32 by entry: entry -> rank, a permutation of [0, count)
)

// maxSnapshotCount bounds the entries of one snapshot: ranks and entry
// indexes are int32 everywhere they are stored.
const maxSnapshotCount = math.MaxInt32

// ErrNoRankRows refuses a checkpoint whose rows are not stored by rank:
// one written before the rank-order format, or by it with documents in entry
// order beside SecRankEntry. There is one snapshot format: such a file is
// not migrated, the directory it belongs to is re-checkpointed by the
// release that wrote it.
var ErrNoRankRows = fmt.Errorf("%w: snapshot has no rows by rank (SecRowHandles, SecEntryRank): written before the rank-order row format", ErrCorrupt)

// Kind discriminates what a KWCP2 container holds (PagedMeta.Kind).
const (
	PagedKindSnapshot  = 1
	PagedKindFlatORPKW = 2
	PagedKindFlatSPKW  = 3
)

// PagedMeta is the 64-byte application blob of a KWCP2 superblock.
//
//	kind u32 | k u32 | dim u32 | reserved u32
//	count u64 | lastSeq u64 | nextHandle u64 | zeros
type PagedMeta struct {
	Kind       uint32
	K          uint32
	Dim        uint32
	Count      uint64
	LastSeq    uint64
	NextHandle uint64
}

// Encode packs the meta into the superblock blob.
func (m PagedMeta) Encode() [64]byte {
	var b [64]byte
	binary.LittleEndian.PutUint32(b[0:], m.Kind)
	binary.LittleEndian.PutUint32(b[4:], m.K)
	binary.LittleEndian.PutUint32(b[8:], m.Dim)
	binary.LittleEndian.PutUint64(b[16:], m.Count)
	binary.LittleEndian.PutUint64(b[24:], m.LastSeq)
	binary.LittleEndian.PutUint64(b[32:], m.NextHandle)
	return b
}

// ParsePagedMeta unpacks a superblock blob.
func ParsePagedMeta(b [64]byte) PagedMeta {
	return PagedMeta{
		Kind:       binary.LittleEndian.Uint32(b[0:]),
		K:          binary.LittleEndian.Uint32(b[4:]),
		Dim:        binary.LittleEndian.Uint32(b[8:]),
		Count:      binary.LittleEndian.Uint64(b[16:]),
		LastSeq:    binary.LittleEndian.Uint64(b[24:]),
		NextHandle: binary.LittleEndian.Uint64(b[32:]),
	}
}

// EncodePostLists flattens bitpack list handles into the SecPostLists int32
// layout.
func EncodePostLists(lists []bitpack.List) []int32 {
	out := make([]int32, 0, 3*len(lists))
	for _, l := range lists {
		out = append(out, l.Block, l.NumBlocks, l.N)
	}
	return out
}

// DecodePostLists is the inverse of EncodePostLists.
func DecodePostLists(v []int32) ([]bitpack.List, error) {
	if len(v)%3 != 0 {
		return nil, fmt.Errorf("%w: posting list triples truncated", ErrCorrupt)
	}
	out := make([]bitpack.List, len(v)/3)
	for i := range out {
		out[i] = bitpack.List{Block: v[3*i], NumBlocks: v[3*i+1], N: v[3*i+2]}
	}
	return out, nil
}

// EncodePostBlocks flattens bitpack block metadata into the SecPostBlocks
// int32 layout. Go struct layout is not a serialization format, so the
// fields are interleaved explicitly.
func EncodePostBlocks(blocks []bitpack.Block) []int32 {
	out := make([]int32, 0, 4*len(blocks))
	for _, b := range blocks {
		out = append(out, b.Off, b.First, b.Max, int32(b.N)|int32(b.W)<<16)
	}
	return out
}

// DecodePostBlocks is the inverse of EncodePostBlocks.
func DecodePostBlocks(v []int32) ([]bitpack.Block, error) {
	if len(v)%4 != 0 {
		return nil, fmt.Errorf("%w: posting block quads truncated", ErrCorrupt)
	}
	out := make([]bitpack.Block, len(v)/4)
	for i := range out {
		nw := v[4*i+3]
		out[i] = bitpack.Block{
			Off:   v[4*i],
			First: v[4*i+1],
			Max:   v[4*i+2],
			N:     int16(nw & 0xffff),
			W:     uint8(nw >> 16 & 0xff),
		}
		if nw>>24 != 0 {
			return nil, fmt.Errorf("%w: posting block flags %#x unknown", ErrCorrupt, nw>>24)
		}
	}
	return out, nil
}

// WritePagedSnapshot serializes the snapshot as a KWCP2 container, laying
// the rows out and numbering the postings in kd leaf order.
func WritePagedSnapshot(w io.Writer, s *Snapshot) error {
	if s.Dim < 1 || s.Dim > 64 {
		return fmt.Errorf("codec: snapshot dimension %d outside [1, 64]", s.Dim)
	}
	count := len(s.Handles)
	for i, h := range s.Handles {
		if h < 0 || i > 0 && h <= s.Handles[i-1] {
			return fmt.Errorf("codec: snapshot handles not strictly increasing at %d", h)
		}
	}
	var points []float64
	docStart, docWords := []int64{0}, []uint32(nil)
	if s.Objs != nil {
		if s.Objs.Dim() != s.Dim {
			return fmt.Errorf("codec: snapshot objects have dimension %d, want %d", s.Objs.Dim(), s.Dim)
		}
		points, docStart, docWords = s.Objs.Columns()
	}
	if len(docStart)-1 != count {
		return fmt.Errorf("codec: snapshot has %d handles for %d objects", count, len(docStart)-1)
	}
	if count > maxSnapshotCount {
		return fmt.Errorf("codec: snapshot of %d entries exceeds %d", count, maxSnapshotCount)
	}
	rankEntry, boxes := kdLeafOrder(points, s.Dim, count)
	// Name each word's posting list and size the lists in entry order, where
	// the documents are sequential, then fill them in rank order: every list
	// comes out ascending with one map lookup a word and no regrowth.
	listOf := map[uint32]int32{} // keyword -> its list
	var wordOf []uint32          // list -> its keyword
	wordList := make([]int32, len(docWords))
	var fill []int // fill[l]: where list l's next rank goes in ranks
	for i, kw := range docWords {
		l, ok := listOf[kw]
		if !ok {
			l = int32(len(fill))
			listOf[kw] = l
			wordOf = append(wordOf, kw)
			fill = append(fill, 0)
		}
		wordList[i] = l
		fill[l]++
	}
	end := 0
	for l, n := range fill {
		fill[l] = end
		end += n
	}
	// The same pass lays every row out by rank, straight into the section
	// bytes, and inverts the order into the entry -> rank column. A word is
	// read back through its list, which spares a second scattered read.
	ranks := make([]int32, len(docWords))
	rankPoints := make([]byte, 8*len(points))
	rowHandles := make([]byte, 8*count)
	rankDocStart := make([]byte, 8*(count+1))
	rankDocWords := make([]byte, 4*len(docWords))
	entryRank := make([]byte, 4*count)
	at := 0 // words laid out so far
	for r, e := range rankEntry {
		for j, v := range points[int(e)*s.Dim : (int(e)+1)*s.Dim] {
			binary.LittleEndian.PutUint64(rankPoints[8*(r*s.Dim+j):], math.Float64bits(v))
		}
		binary.LittleEndian.PutUint64(rowHandles[8*r:], uint64(s.Handles[e]))
		binary.LittleEndian.PutUint32(entryRank[4*e:], uint32(r))
		for _, l := range wordList[docStart[e]:docStart[e+1]] {
			binary.LittleEndian.PutUint32(rankDocWords[4*at:], wordOf[l])
			at++
			ranks[fill[l]] = int32(r)
			fill[l]++
		}
		binary.LittleEndian.PutUint64(rankDocStart[8*(r+1):], uint64(at))
	}
	vocab := slices.Clone(wordOf)
	slices.Sort(vocab)
	var arena bitpack.PackedLists
	lists := make([]bitpack.List, len(vocab))
	for i, kw := range vocab {
		// fill[l] has advanced to list l's end; list l-1's end is its start.
		l, start := listOf[kw], 0
		if l > 0 {
			start = fill[l-1]
		}
		lists[i] = arena.Append(ranks[start:fill[l]])
	}
	words, blocks := arena.Raw()

	meta := PagedMeta{
		Kind:       PagedKindSnapshot,
		K:          uint32(s.K),
		Dim:        uint32(s.Dim),
		Count:      uint64(count),
		LastSeq:    s.LastSeq,
		NextHandle: uint64(s.NextHandle),
	}
	return WriteContainer(w, meta.Encode(), []Section{
		{SecHandles, putI64s(s.Handles)},
		{SecPoints, rankPoints},
		{SecDocStart, rankDocStart},
		{SecDocWords, rankDocWords},
		{SecVocab, putU32s(vocab)},
		{SecPostLists, putI32s(EncodePostLists(lists))},
		{SecPostBlocks, putI32s(EncodePostBlocks(blocks))},
		{SecPostWords, putU64s(words)},
		{SecCellBoxes, putF64s(boxes)},
		{SecRowHandles, rowHandles},
		{SecEntryRank, entryRank},
	})
}

// sectionExact reads section id and checks its byte length is exactly want.
func sectionExact(c *Container, r io.ReaderAt, id uint32, want int64) ([]byte, error) {
	_, n, ok := c.Section(id)
	if !ok && want == 0 {
		return nil, nil
	}
	if !ok || n != want {
		return nil, fmt.Errorf("%w: section %d is %d bytes, want %d", ErrCorrupt, id, n, want)
	}
	return c.SectionBytes(r, id)
}

// SnapshotMeta parses the meta blob of a snapshot container and applies the
// checks both readers share: the kind, the bounds every later size is
// computed from, and the presence of the rows by rank.
func SnapshotMeta(c *Container) (PagedMeta, error) {
	meta := ParsePagedMeta(c.Meta)
	if meta.Kind != PagedKindSnapshot {
		return meta, fmt.Errorf("%w: container kind %d is not a snapshot", ErrCorrupt, meta.Kind)
	}
	if meta.K < 2 || meta.K > 64 || meta.Dim == 0 || meta.Dim > 64 ||
		meta.Count > maxSnapshotCount || meta.NextHandle > math.MaxInt64 {
		return meta, fmt.Errorf("%w: implausible snapshot meta %+v", ErrCorrupt, meta)
	}
	_, _, rows := c.Section(SecRowHandles)
	_, _, inverse := c.Section(SecEntryRank)
	if !rows || !inverse {
		return meta, ErrNoRankRows
	}
	return meta, nil
}

// ReadPagedSnapshot fully decodes a snapshot container, verifying every page
// checksum and the structural invariants — the eager path used by classic
// (non-paged) recovery and by followers. The rows are gathered back into
// entry order (Rows.Entries), so the snapshot returned is the one written,
// column for column. Paged serving opens the same bytes through core's
// paged base instead and never runs this.
func ReadPagedSnapshot(r io.ReaderAt, size int64) (*Snapshot, error) {
	c, err := ParseContainer(r, size)
	if err != nil {
		return nil, err
	}
	if err := c.VerifyAllPages(r); err != nil {
		return nil, err
	}
	meta, err := SnapshotMeta(c)
	if err != nil {
		return nil, err
	}
	count := int64(meta.Count)
	dim := int(meta.Dim)
	cell := int64(CellSize(dim))

	var rows Rows
	for _, s := range []struct {
		into *[]byte
		id   uint32
		want int64
	}{
		{&rows.Handles, SecHandles, 8 * count},
		{&rows.EntryRank, SecEntryRank, 4 * count},
		{&rows.Points, SecPoints, 8 * count * int64(dim)},
		{&rows.RowHandles, SecRowHandles, 8 * count},
		{&rows.DocStart, SecDocStart, 8 * (count + 1)},
	} {
		if *s.into, err = sectionExact(c, r, s.id, s.want); err != nil {
			return nil, err
		}
	}
	boxesB, err := sectionExact(c, r, SecCellBoxes, 16*int64(dim)*((count+cell-1)/cell))
	if err != nil {
		return nil, err
	}
	total := int64(binary.LittleEndian.Uint64(rows.DocStart[8*count:]))
	_, dwLen, _ := c.Section(SecDocWords)
	if total < 0 || dwLen != 4*total {
		return nil, fmt.Errorf("%w: document words sized %d, offsets claim %d", ErrCorrupt, dwLen, 4*total)
	}
	if rows.DocWords, err = c.SectionBytes(r, SecDocWords); err != nil {
		return nil, err
	}
	s := &Snapshot{
		K: int(meta.K), Dim: dim,
		LastSeq: meta.LastSeq, NextHandle: int64(meta.NextHandle),
	}
	if s.Handles, s.Objs, err = rows.Entries(dim, s.NextHandle); err != nil {
		return nil, err
	}
	if err := checkCellBoxes(getF64s(rows.Points), getF64s(boxesB), dim); err != nil {
		return nil, err
	}

	// The inverted-index sections are unused on this path but must still be
	// structurally sound — the paged base trusts the same validation.
	if err := validateSnapshotPostings(c, r, count, total); err != nil {
		return nil, err
	}
	return s, nil
}

// Rows are the raw little-endian bytes of a snapshot's per-entry sections:
// SecHandles and SecEntryRank by entry; SecPoints, SecRowHandles,
// SecDocStart and SecDocWords by rank.
type Rows struct {
	Handles, EntryRank, Points, RowHandles, DocStart, DocWords []byte
}

// Entries gathers the rows back into entry order: the Handles and Objs of
// the snapshot written (nil, nil when it is empty). Every column is read
// once, in file order, through a transient rank -> entry scratch. The rows
// are refused unless they are that snapshot: handles strictly increasing
// below nextHandle, SecEntryRank a permutation, every row holding its
// entry's handle, and every document non-empty and canonical.
func (rows Rows) Entries(dim int, nextHandle int64) ([]int64, *dataset.Dataset, error) {
	n := len(rows.Handles) / 8
	if len(rows.Handles) != 8*n || len(rows.EntryRank) != 4*n || len(rows.RowHandles) != 8*n ||
		len(rows.Points) != 8*n*dim || len(rows.DocStart) != 8*(n+1) || len(rows.DocWords)%4 != 0 {
		return nil, nil, fmt.Errorf("%w: row sections sized for different entry counts", ErrCorrupt)
	}
	le32 := func(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[4*i:]) }
	le64 := func(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }
	words := uint64(len(rows.DocWords) / 4)
	if le64(rows.DocStart, 0) != 0 || le64(rows.DocStart, n) != words {
		return nil, nil, fmt.Errorf("%w: document offsets run %d..%d over %d words", ErrCorrupt, le64(rows.DocStart, 0), le64(rows.DocStart, n), words)
	}
	if n == 0 {
		return nil, nil, nil
	}
	handles := getI64s(rows.Handles)
	prev := int64(-1)
	for _, h := range handles {
		if h <= prev || h >= nextHandle {
			return nil, nil, fmt.Errorf("%w: snapshot handle %d out of order or past watermark", ErrCorrupt, h)
		}
		prev = h
	}
	rankEntry := make([]int32, n)
	for r := range rankEntry {
		rankEntry[r] = -1
	}
	for e := 0; e < n; e++ {
		r := int32(le32(rows.EntryRank, e))
		if r < 0 || int(r) >= n || rankEntry[r] >= 0 {
			return nil, nil, fmt.Errorf("%w: entry -> rank column is not a permutation at entry %d", ErrCorrupt, e)
		}
		rankEntry[r] = int32(e)
	}
	// Rank order: each row's handle, point and document length; then the
	// words, in rank order too, to where the prefix sums put them.
	points := make([]float64, n*dim)
	docStart := make([]int64, n+1)
	end := uint64(0)
	for r, e := range rankEntry {
		if h := int64(le64(rows.RowHandles, r)); h != handles[e] {
			return nil, nil, fmt.Errorf("%w: row %d holds handle %d, its entry %d's is %d", ErrCorrupt, r, h, e, handles[e])
		}
		for j := 0; j < dim; j++ {
			points[int(e)*dim+j] = math.Float64frombits(le64(rows.Points, r*dim+j))
		}
		next := le64(rows.DocStart, r+1)
		if next <= end || next > words {
			return nil, nil, fmt.Errorf("%w: empty or out-of-order document at rank %d", ErrCorrupt, r)
		}
		docStart[e+1], end = int64(next-end), next
	}
	for e := 0; e < n; e++ {
		docStart[e+1] += docStart[e]
	}
	docWords := make([]dataset.Keyword, words)
	w := 0
	for _, e := range rankEntry {
		for i := docStart[e]; i < docStart[e+1]; i++ {
			docWords[i] = le32(rows.DocWords, w)
			w++
		}
	}
	objs, err := dataset.FromColumns(dim, points, docStart, docWords)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return handles, objs, nil
}

// checkCellBoxes refuses a cell box that does not hold one of its cell's
// points, given by rank (a NaN coordinate needs the unbounded box kdLeafOrder
// gives it).
func checkCellBoxes(rankPoints, boxes []float64, dim int) error {
	cell := CellSize(dim)
	for r := 0; r < len(rankPoints)/dim; r++ {
		box := boxes[2*dim*(r/cell):]
		for j, v := range rankPoints[r*dim : (r+1)*dim] {
			lo, hi := box[j], box[dim+j]
			if !(lo <= v && v <= hi) && !(v != v && math.IsInf(lo, -1) && math.IsInf(hi, 1)) {
				return fmt.Errorf("%w: cell %d box does not hold the point at rank %d", ErrCorrupt, r/cell, r)
			}
		}
	}
	return nil
}

// validateSnapshotPostings checks the vocabulary and bitpacked posting
// sections: sorted vocab, one list per keyword, every block span inside the
// word arena, and exactly one posting per document word.
func validateSnapshotPostings(c *Container, r io.ReaderAt, count, totalWords int64) error {
	vocabB, err := c.SectionBytes(r, SecVocab)
	if err != nil {
		return err
	}
	listsB, err := c.SectionBytes(r, SecPostLists)
	if err != nil {
		return err
	}
	blocksB, err := c.SectionBytes(r, SecPostBlocks)
	if err != nil {
		return err
	}
	wordsB, err := c.SectionBytes(r, SecPostWords)
	if err != nil {
		return err
	}
	if len(vocabB)%4 != 0 || len(listsB)%4 != 0 || len(blocksB)%4 != 0 || len(wordsB)%8 != 0 {
		return fmt.Errorf("%w: posting section not a whole number of values", ErrCorrupt)
	}
	vocab := getU32s(vocabB)
	lists, err := DecodePostLists(getI32s(listsB))
	if err != nil {
		return err
	}
	blocks, err := DecodePostBlocks(getI32s(blocksB))
	if err != nil {
		return err
	}
	if len(lists) != len(vocab) {
		return fmt.Errorf("%w: %d posting lists for %d keywords", ErrCorrupt, len(lists), len(vocab))
	}
	arena := bitpack.FromRaw(getU64s(wordsB), blocks)
	var n int64
	for i, l := range lists {
		if i > 0 && vocab[i] <= vocab[i-1] {
			return fmt.Errorf("%w: vocabulary not strictly increasing", ErrCorrupt)
		}
		if err := arena.Validate(l); err != nil {
			return fmt.Errorf("%w: posting list %d: %v", ErrCorrupt, i, err)
		}
		for _, b := range arena.Blocks(l) {
			if b.First < 0 || int64(b.Max) >= count || b.First > b.Max {
				return fmt.Errorf("%w: posting block ids outside [0,%d)", ErrCorrupt, count)
			}
		}
		n += int64(l.N)
	}
	if n != totalWords {
		return fmt.Errorf("%w: %d postings for %d document words", ErrCorrupt, n, totalWords)
	}
	return nil
}
