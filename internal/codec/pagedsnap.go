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
// recovery must resume from. This package only writes it
// (WritePagedSnapshot): on disk it is a KWCP2 container — every row — point,
// handle, document — in rank order (the kd leaf order of rankorder.go), one
// bounding box per cell of ranks, an inverted index (sorted vocabulary,
// bitpacked postings of *ranks*), and beside them the ascending handle column
// with the entry -> rank column that leads from a handle to its row. It has
// one reader, core.OpenPagedBase, which answers queries from the file without
// decoding it; a reader that takes the entries in adds the base's Verify and
// Entries, which gathers back the entry set written.
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

// Postings is the inverted index of a snapshot as a reader keeps it
// resident: the sorted vocabulary, one list handle per keyword, and the block
// directory of the rank lists, whose payload stays in SecPostWords.
type Postings struct {
	Vocab  []uint32
	Lists  []bitpack.List
	Blocks []bitpack.Block
}

// encodePostings flattens the list handles and the block directory into the
// SecPostLists triples and SecPostBlocks quads. Go struct layout is not a
// serialization format, so the fields are interleaved explicitly.
func encodePostings(lists []bitpack.List, blocks []bitpack.Block) (listsB, blocksB []byte) {
	lv := make([]int32, 0, 3*len(lists))
	for _, l := range lists {
		lv = append(lv, l.Block, l.NumBlocks, l.N)
	}
	bv := make([]int32, 0, 4*len(blocks))
	for _, b := range blocks {
		bv = append(bv, b.Off, b.First, b.Max, int32(b.N)|int32(b.W)<<16)
	}
	return Put(lv), Put(bv)
}

// ParsePostings decodes the vocabulary, list and block-directory sections of
// a snapshot and checks them against what they index: a payload of
// payloadBytes (SecPostWords), count ranks and docWords document words. It
// is the one check of the posting directory; the paged base trusts what it
// passes, and a cursor reads payloads on it without a bounds check of its
// own:
//   - the vocabulary strictly ascends, one list a keyword;
//   - a list's blocks lie in the directory and hold the ranks it claims;
//   - a block holds 1..BlockSize ranks at deltas of at most 32 bits, its
//     payload lies inside SecPostWords and its [First, Max] inside [0, count);
//   - a list's blocks ascend (First >= the previous block's Max), which a
//     cursor's skip on Max relies on;
//   - there is one posting per document word.
func ParsePostings(vocabB, listsB, blocksB []byte, payloadBytes, count, docWords int64) (Postings, error) {
	if len(vocabB)%4 != 0 || len(listsB)%12 != 0 || len(blocksB)%16 != 0 || payloadBytes%8 != 0 {
		return Postings{}, fmt.Errorf("%w: posting section not a whole number of records", ErrCorrupt)
	}
	p := Postings{Vocab: Get[uint32](vocabB)}
	lv, bv := Get[int32](listsB), Get[int32](blocksB)
	p.Lists = make([]bitpack.List, len(lv)/3)
	for i := range p.Lists {
		p.Lists[i] = bitpack.List{Block: lv[3*i], NumBlocks: lv[3*i+1], N: lv[3*i+2]}
	}
	p.Blocks = make([]bitpack.Block, len(bv)/4)
	for i := range p.Blocks {
		nw := bv[4*i+3]
		if nw>>24 != 0 {
			return Postings{}, fmt.Errorf("%w: posting block flags %#x unknown", ErrCorrupt, nw>>24)
		}
		p.Blocks[i] = bitpack.Block{Off: bv[4*i], First: bv[4*i+1], Max: bv[4*i+2], N: int16(nw & 0xffff), W: uint8(nw >> 16)}
	}
	if len(p.Lists) != len(p.Vocab) {
		return Postings{}, fmt.Errorf("%w: %d posting lists for %d keywords", ErrCorrupt, len(p.Lists), len(p.Vocab))
	}
	var total int64
	for i, l := range p.Lists {
		if i > 0 && p.Vocab[i] <= p.Vocab[i-1] {
			return Postings{}, fmt.Errorf("%w: vocabulary not strictly increasing at entry %d", ErrCorrupt, i)
		}
		if l.Block < 0 || l.NumBlocks < 0 || int64(l.Block)+int64(l.NumBlocks) > int64(len(p.Blocks)) {
			return Postings{}, fmt.Errorf("%w: posting list %d blocks out of range", ErrCorrupt, i)
		}
		var n int64
		prevMax := int32(0)
		for _, b := range p.Blocks[l.Block : l.Block+l.NumBlocks] {
			var bad string
			switch {
			case b.N < 1 || b.N > bitpack.BlockSize || b.W > 32:
				bad = "geometry invalid"
			case b.Off < 0 || 8*(int64(b.Off)+int64(b.Words())) > payloadBytes:
				bad = "payload out of range"
			case b.First < 0 || int64(b.Max) >= count || b.First > b.Max:
				bad = fmt.Sprintf("ranks outside [0,%d)", count)
			case b.First < prevMax:
				bad = "out of order"
			}
			if bad != "" {
				return Postings{}, fmt.Errorf("%w: posting block %s in list %d", ErrCorrupt, bad, i)
			}
			prevMax = b.Max
			n += int64(b.N)
		}
		if n != int64(l.N) {
			return Postings{}, fmt.Errorf("%w: posting list %d claims %d values, blocks hold %d", ErrCorrupt, i, l.N, n)
		}
		total += n
	}
	if total != docWords {
		return Postings{}, fmt.Errorf("%w: %d postings for %d document words", ErrCorrupt, total, docWords)
	}
	return p, nil
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
	payload, blocks := arena.Raw()
	listsB, blocksB := encodePostings(lists, blocks)

	meta := PagedMeta{
		Kind:       PagedKindSnapshot,
		K:          uint32(s.K),
		Dim:        uint32(s.Dim),
		Count:      uint64(count),
		LastSeq:    s.LastSeq,
		NextHandle: uint64(s.NextHandle),
	}
	return WriteContainer(w, meta.Encode(), []Section{
		{SecHandles, Put(s.Handles)},
		{SecPoints, rankPoints},
		{SecDocStart, rankDocStart},
		{SecDocWords, rankDocWords},
		{SecVocab, Put(vocab)},
		{SecPostLists, listsB},
		{SecPostBlocks, blocksB},
		{SecPostWords, payload},
		{SecCellBoxes, Put(boxes)},
		{SecRowHandles, rowHandles},
		{SecEntryRank, entryRank},
	})
}

// SnapshotMeta parses the meta blob of a snapshot container and applies the
// checks that come before any section is read: the kind, the bounds every
// later size is computed from, and the presence of the rows by rank.
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
	handles := Get[int64](rows.Handles)
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
