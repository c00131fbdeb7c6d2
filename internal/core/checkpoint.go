package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"kwsc/internal/bitpack"
	"kwsc/internal/codec"
	"kwsc/internal/dataset"
	"kwsc/internal/pager"
	"kwsc/internal/spart"
)

// This file is the checkpoint: the KWCP2 container a durable index's live
// entry set is written as, and PagedBase (pagedbase.go) serves and reads
// back. It holds every row — point, handle, document — in rank order, the
// kd tree of that order cut at one cell, an inverted index (sorted
// vocabulary, bitpacked postings of *ranks*), and beside them the ascending
// handle column with the entry -> rank column that leads from a handle to
// its row. The section ids are codec's (codec/sections.go); the six row
// sections are ckptRowSecs, which the writer, the open, the readers and the
// gather all loop over.
//
// The writer runs the build's own tree, posting and row passes (treePass,
// builder.postings, gatherRows), so rank r is rank r of
// BuildORPKW over the same entries, list w is w's posting in that build, and
// the file's bytes are a function of the entry set.

// Snapshot is the payload of a durability checkpoint: the live entry set of
// a dynamic index — a handle column beside the dataset's three — together
// with the log position the checkpoint supersedes and the handle watermark
// recovery must resume from. WritePagedSnapshot writes it and
// ReadPagedSnapshot reads it back.
type Snapshot struct {
	K          int              // query keyword arity of the index
	Dim        int              // point dimensionality
	LastSeq    uint64           // last WAL sequence number the snapshot covers
	NextHandle int64            // handle the next insertion will be assigned
	Handles    []int64          // strictly ascending; Handles[i] names object i of Objs
	Objs       *dataset.Dataset // nil when the snapshot is empty
}

// maxSnapshotCount bounds the entries of one snapshot: ranks and entry
// indexes are int32 everywhere they are stored.
const maxSnapshotCount = math.MaxInt32

// errNoRankRows refuses a checkpoint whose rows are not stored by rank:
// one written before the rank-order format, or by it with documents in entry
// order beside SecRankEntry. There is one snapshot format: such a file is
// not migrated, the directory it belongs to is re-checkpointed by the
// release that wrote it.
var errNoRankRows = fmt.Errorf("%w: snapshot has no rows by rank (SecRowHandles, SecEntryRank): written before the rank-order row format", codec.ErrCorrupt)

// errNoRankTree refuses a checkpoint without the stored tree: one written
// before its rank order was the build's, with one box per cell of ranks
// instead. It is not migrated either.
var errNoRankTree = fmt.Errorf("%w: snapshot has no stored kd tree (SecTreeSpans, SecTreeBoxes): written before the build's rank order", codec.ErrCorrupt)

// ckptRows are a checkpoint's six row sections as columns: the handle
// column and the entry -> rank column by entry, the rows by rank.
type ckptRows struct {
	handles    []int64
	points     []float64 // count x dim, row-major
	docStart   []int64   // count+1 prefix offsets into docWords
	docWords   []dataset.Keyword
	rowHandles []int64 // rank -> handle
	entryRank  []int32 // entry -> rank, a permutation of [0, count)
}

// ckptRow pairs one row section of a checkpoint with its column. values is
// the section's length in values for count entries of dim coordinates
// holding words document words.
type ckptRow struct {
	id     uint32
	width  int64 // bytes a value
	byRank bool  // read by queries, through a view of its own in pread mode
	values func(count, dim, words int64) int64
	put    func(c *ckptRows) []byte
	cast   func(c *ckptRows, raw []byte) bool // alias mapped bytes; false when they do not cast
	get    func(c *ckptRows, raw []byte)      // decode into a fresh column
}

func ckptCol[T pager.Word](id uint32, byRank bool, values func(count, dim, words int64) int64, col func(c *ckptRows) *[]T) ckptRow {
	return ckptRow{id: id, width: int64(binary.Size(*new(T))), byRank: byRank, values: values,
		put:  func(c *ckptRows) []byte { return codec.Put(*col(c)) },
		cast: func(c *ckptRows, raw []byte) bool { *col(c) = pager.Cast[T](raw); return *col(c) != nil },
		get:  func(c *ckptRows, raw []byte) { *col(c) = codec.Get[T](raw) },
	}
}

// Positions of the row sections in ckptRowSecs.
const (
	colHandles = iota
	colPoints
	colDocStart
	colDocWords
	colRowHandles
	colEntryRank
	numRowSecs
)

// ckptRowSecs are the checkpoint's row sections in file order. The index
// sections sit between the first rowsBeforeIndex and the rest: the row
// handles and the entry -> rank column joined the format last.
var ckptRowSecs = [numRowSecs]ckptRow{
	colHandles:    ckptCol(codec.SecHandles, false, func(n, _, _ int64) int64 { return n }, func(c *ckptRows) *[]int64 { return &c.handles }),
	colPoints:     ckptCol(codec.SecPoints, true, func(n, d, _ int64) int64 { return n * d }, func(c *ckptRows) *[]float64 { return &c.points }),
	colDocStart:   ckptCol(codec.SecDocStart, true, func(n, _, _ int64) int64 { return n + 1 }, func(c *ckptRows) *[]int64 { return &c.docStart }),
	colDocWords:   ckptCol(codec.SecDocWords, true, func(_, _, w int64) int64 { return w }, func(c *ckptRows) *[]dataset.Keyword { return &c.docWords }),
	colRowHandles: ckptCol(codec.SecRowHandles, true, func(n, _, _ int64) int64 { return n }, func(c *ckptRows) *[]int64 { return &c.rowHandles }),
	colEntryRank:  ckptCol(codec.SecEntryRank, false, func(n, _, _ int64) int64 { return n }, func(c *ckptRows) *[]int32 { return &c.entryRank }),
}

const rowsBeforeIndex = colRowHandles

// cellSize is the most ranks a stored leaf of a dim-dimensional
// checkpoint's tree spans: a page of SecPoints when 8*dim divides the page
// size.
func cellSize(dim int) int { return pager.PageSize / (8 * dim) }

// storedTree is the tree a checkpoint stores: the build's, cut at one cell.
// It returns, in preorder, the root and every node whose parent spans more
// than cellSize(dim) ranks, each as its span of ranks and its tight box over
// coords (dim a rank), dim lows then dim highs.
func storedTree(nodes []fnode, coords []float64, dim int) (spans []int32, boxes []float64) {
	// A stored leaf's box holds its points; an inner node's its pivot, the
	// first rank of its interval, and its children's boxes.
	cell := int32(cellSize(dim))
	var cut func(u int32)
	cut = func(u int32) {
		nd, at := &nodes[u], 2*dim*len(spans)
		spans = append(spans, nd.hi-nd.lo)
		for a := 0; a < 2*dim; a++ {
			boxes = append(boxes, math.Inf(1-2*(a/dim))) // empty: +Inf lows, -Inf highs
		}
		hi := nd.hi
		if nd.hi-nd.lo > cell {
			hi = nd.lo + 1
			for _, c := range nd.children {
				child := 2 * dim * len(spans)
				cut(c)
				widenBox(boxes[at:at+2*dim], boxes[child:child+dim])
				widenBox(boxes[at:at+2*dim], boxes[child+dim:child+2*dim])
			}
		}
		for r := int(nd.lo); r < int(hi); r++ {
			widenBox(boxes[at:at+2*dim], coords[r*dim:(r+1)*dim])
		}
	}
	cut(0)
	return spans, boxes
}

// widenBox widens box, dim lows then dim highs, to hold the point p.
func widenBox(box, p []float64) {
	d := len(p)
	for a, v := range p {
		box[a], box[d+a] = min(box[a], v), max(box[d+a], v)
	}
}

// WritePagedSnapshot serializes the snapshot as a KWCP2 container, its rows
// and postings in the rank order of BuildORPKW over the same entries.
func WritePagedSnapshot(w io.Writer, s *Snapshot) error {
	if s.Dim < 1 || s.Dim > 64 {
		return fmt.Errorf("core: snapshot dimension %d outside [1, 64]", s.Dim)
	}
	count := len(s.Handles)
	for i, h := range s.Handles {
		if h < 0 || i > 0 && h <= s.Handles[i-1] {
			return fmt.Errorf("core: snapshot handles not strictly increasing at %d", h)
		}
	}
	objects := 0
	if s.Objs != nil {
		if s.Objs.Dim() != s.Dim {
			return fmt.Errorf("core: snapshot objects have dimension %d, want %d", s.Objs.Dim(), s.Dim)
		}
		objects = s.Objs.Len()
	}
	if objects != count {
		return fmt.Errorf("core: snapshot has %d handles for %d objects", count, objects)
	}
	if count > maxSnapshotCount {
		return fmt.Errorf("core: snapshot of %d entries exceeds %d", count, maxSnapshotCount)
	}
	// The build's own passes rank the entries, lay out their postings and
	// gather their rows by rank, two-wide: rank r and list w are BuildORPKW's.
	rows := ckptRows{
		handles:    s.Handles,
		docStart:   []int64{0},
		rowHandles: make([]int64, count),
		entryRank:  make([]int32, count),
	}
	var vocab []dataset.Keyword
	var lists []bitpack.List
	var arena bitpack.PackedLists
	var spans []int32
	var boxes []float64
	if count > 0 {
		b, objs, err := treePass(s.Objs, FrameworkConfig{K: s.K, Splitter: &spart.KD{Dim: s.Dim}, gate: newParGate(2), rankSpace: true})
		if err != nil {
			return err
		}
		roots, docStart, docWords := b.postings(s.Objs, objs)
		perm := byKeyword(make([]int32, 0, len(b.words)), b.words)
		vocab, lists = make([]dataset.Keyword, len(perm)), make([]bitpack.List, len(perm))
		for i, d := range perm {
			r := roots[d]
			vocab[i], lists[i] = b.words[d], arena.Append(b.post[r.off:r.off+r.n])
		}
		ids, byRank := b.gatherRows(s.Objs, objs, docStart, docWords)
		rows.points, rows.docStart, rows.docWords = byRank.Columns()
		spans, boxes = storedTree(b.nodes, rows.points, s.Dim)
		for r, e := range ids {
			rows.rowHandles[r] = s.Handles[e]
			rows.entryRank[e] = int32(r)
		}
	}
	payload, blocks := arena.Raw()
	listsB, blocksB := encodePostings(lists, blocks)

	secs := make([]codec.Section, 0, numRowSecs+6)
	for i, row := range ckptRowSecs {
		if i == rowsBeforeIndex {
			secs = append(secs,
				codec.Section{ID: codec.SecVocab, Data: codec.Put(vocab)},
				codec.Section{ID: codec.SecPostLists, Data: listsB},
				codec.Section{ID: codec.SecPostBlocks, Data: blocksB},
				codec.Section{ID: codec.SecPostWords, Data: payload},
				codec.Section{ID: codec.SecTreeSpans, Data: codec.Put(spans)},
				codec.Section{ID: codec.SecTreeBoxes, Data: codec.Put(boxes)})
		}
		secs = append(secs, codec.Section{ID: row.id, Data: row.put(&rows)})
	}
	meta := codec.PagedMeta{
		Kind:       codec.PagedKindSnapshot,
		K:          uint32(s.K),
		Dim:        uint32(s.Dim),
		Count:      uint64(count),
		LastSeq:    s.LastSeq,
		NextHandle: uint64(s.NextHandle),
	}
	return codec.WriteContainer(w, meta.Encode(), secs)
}

// ReadPagedSnapshot reads the checkpoint at path back into the snapshot
// written: the one checkpoint reader opens it, verify runs the checks open
// leaves to the queries, and entries gathers the entry set. Recovery into
// memory and a follower validating a download read a checkpoint this way.
func ReadPagedSnapshot(path string) (*Snapshot, error) {
	b, err := OpenPagedBase(path, PagedBaseOptions{})
	if err != nil {
		return nil, err
	}
	defer b.Close()
	if err := b.verify(); err != nil {
		return nil, err
	}
	s := &Snapshot{K: b.k, Dim: b.dim, LastSeq: b.lastSeq, NextHandle: b.nextHandle}
	if s.Handles, s.Objs, err = b.entries(); err != nil {
		return nil, err
	}
	return s, nil
}

// snapshotMeta parses the meta blob of a snapshot container and applies the
// checks that come before any section is read: the kind, the bounds every
// later size is computed from, and the presence of the rows by rank and of
// the stored tree.
func snapshotMeta(c *codec.Container) (codec.PagedMeta, error) {
	meta := codec.ParsePagedMeta(c.Meta)
	if meta.Kind != codec.PagedKindSnapshot {
		return meta, fmt.Errorf("%w: container kind %d is not a snapshot", codec.ErrCorrupt, meta.Kind)
	}
	if meta.K < 2 || meta.K > 64 || meta.Dim == 0 || meta.Dim > 64 ||
		meta.Count > maxSnapshotCount || meta.NextHandle > math.MaxInt64 {
		return meta, fmt.Errorf("%w: implausible snapshot meta %+v", codec.ErrCorrupt, meta)
	}
	_, _, rows := c.Section(codec.SecRowHandles)
	_, _, inverse := c.Section(codec.SecEntryRank)
	if !rows || !inverse {
		return meta, errNoRankRows
	}
	_, _, spans := c.Section(codec.SecTreeSpans)
	_, _, boxes := c.Section(codec.SecTreeBoxes)
	if !spans || !boxes {
		return meta, errNoRankTree
	}
	return meta, nil
}

// postings is the inverted index of a snapshot as a reader keeps it
// resident: the sorted vocabulary, one list handle per keyword, and the block
// directory of the rank lists, whose payload stays in SecPostWords.
type postings struct {
	vocab  []uint32
	lists  []bitpack.List
	blocks []bitpack.Block
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
	return codec.Put(lv), codec.Put(bv)
}

// parsePostings decodes the vocabulary, list and block-directory sections of
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
func parsePostings(vocabB, listsB, blocksB []byte, payloadBytes, count, docWords int64) (postings, error) {
	if len(vocabB)%4 != 0 || len(listsB)%12 != 0 || len(blocksB)%16 != 0 || payloadBytes%8 != 0 {
		return postings{}, errBase("posting section not a whole number of records")
	}
	p := postings{vocab: codec.Get[uint32](vocabB)}
	lv, bv := codec.Get[int32](listsB), codec.Get[int32](blocksB)
	p.lists = make([]bitpack.List, len(lv)/3)
	for i := range p.lists {
		p.lists[i] = bitpack.List{Block: lv[3*i], NumBlocks: lv[3*i+1], N: lv[3*i+2]}
	}
	p.blocks = make([]bitpack.Block, len(bv)/4)
	for i := range p.blocks {
		nw := bv[4*i+3]
		if nw>>24 != 0 {
			return postings{}, errBase("posting block flags %#x unknown", nw>>24)
		}
		p.blocks[i] = bitpack.Block{Off: bv[4*i], First: bv[4*i+1], Max: bv[4*i+2], N: int16(nw & 0xffff), W: uint8(nw >> 16)}
	}
	if len(p.lists) != len(p.vocab) {
		return postings{}, errBase("%d posting lists for %d keywords", len(p.lists), len(p.vocab))
	}
	var total int64
	for i, l := range p.lists {
		if i > 0 && p.vocab[i] <= p.vocab[i-1] {
			return postings{}, errBase("vocabulary not strictly increasing at entry %d", i)
		}
		if l.Block < 0 || l.NumBlocks < 0 || int64(l.Block)+int64(l.NumBlocks) > int64(len(p.blocks)) {
			return postings{}, errBase("posting list %d blocks out of range", i)
		}
		var n int64
		prevMax := int32(0)
		for _, b := range p.blocks[l.Block : l.Block+l.NumBlocks] {
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
				return postings{}, errBase("posting block %s in list %d", bad, i)
			}
			prevMax = b.Max
			n += int64(b.N)
		}
		if n != int64(l.N) {
			return postings{}, errBase("posting list %d claims %d values, blocks hold %d", i, l.N, n)
		}
		total += n
	}
	if total != docWords {
		return postings{}, errBase("%d postings for %d document words", total, docWords)
	}
	return p, nil
}
