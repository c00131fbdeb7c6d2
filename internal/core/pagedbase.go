package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"kwsc/internal/bitpack"
	"kwsc/internal/codec"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/pager"
)

// PagedBase serves the entries of a KWCP2 snapshot checkpoint directly from
// the file — mapped read-only by default, or through a bounded pread buffer
// pool — so recovery can answer queries the moment the file is open instead
// of after a full decode and index rebuild. It plugs into DynamicORPKW as
// the immutable base layer beneath the Bentley–Saxe buckets: deletions of
// base entries are tombstoned at the dynamic layer, and insertions go to the
// buffer/buckets as usual (see BaseIndex).
//
// The checkpoint stores its rows — point, handle, document — and numbers its
// postings by rank, the position in a kd leaf order (codec/rankorder.go): a
// cell of ranks is one page of points, and every node of the kd tree over
// the cells is a rank interval. The tree
// is resident — one box per node, rebuilt at open from the stored cell boxes
// by the writer's own split arithmetic — so a query first descends it with
// the rectangle to the ascending runs of cells the rectangle meets, and then
// intersects the k posting lists inside those runs only: a k-way leapfrog
// driven off the shortest list, every cursor seeking to a run's first rank
// and leaving at its last. The leapfrog runs on the block directory
// (First/Max per 128-rank block), which is resident too: a block is skipped
// when its Max lies below the sought rank and answers from its First when
// the rank lies at or below it, so a posting page is read only for a block
// whose range really straddles the rank. Posting blocks, candidates and
// point pages outside the rectangle's cells are never touched; a rank found
// in all k lists reads its point, and one inside the rectangle its document
// and handle from the same rank's rows — neighbours in the file, as they are
// in space: O(posting pages inside the runs + |intersection inside the runs|
// point reads, a page per cell + the row pages of OUT) page reads per query,
// against none for the tree and the directory. The rectangle now
// prunes before the lists are read, but the plan is still keywords first:
// inside a run nothing bounds the intersection by N^(1-1/k), so Theorem 1's
// bound is forfeited while the base serves — the out-of-core trade: bounded
// memory and instant start against more work per query.
//
// Structural metadata (vocabulary, posting-list and block directories, cell
// boxes, the handle column, document offsets, the entry -> rank column) is
// validated eagerly at open — O(vocabulary + blocks + entries), no payload
// pages touched beyond those columns — so the scan path can trust offsets
// without re-checking; a violation is an error wrapping codec.ErrCorrupt.
// What open cannot check is that the index sections tell the truth about the
// rows: a cell box that leaves out one of its points, or a posting list that
// leaves out a rank, hides a match. Neither can report a wrong one: every
// reported row has had its own point tested against the rectangle and its
// own document against the keywords. A query reads no index section beyond
// the boxes and the postings, and Has confirms what the handle column says
// against the row it leads to, so a lying index can hide a handle but never
// invent one. Page content integrity is the pager's job: every page is
// checksum-verified on first pin, and a mismatch surfaces as an error
// wrapping pager.ErrChecksum.
type PagedBase struct {
	f    *pager.File
	pool *pager.Pool

	k, dim     int
	count      int64
	lastSeq    uint64
	nextHandle int64

	// Absolute byte offsets of the payload sections: the handle column and
	// its entry -> rank column, the rows by rank, the posting payload.
	handlesOff, entryRankOff                           int64
	pointsOff, rowHandlesOff, docStartOff, docWordsOff int64
	wordsOff, docTotal, wordsN                         int64

	// Always-resident metadata columns (small: O(vocabulary + blocks + cells)).
	vocab  []uint32
	lists  []bitpack.List
	blocks []bitpack.Block
	// handleFence[p] is the first handle on page p of the handles section, so
	// Has finds the one page that can hold a handle without reading any.
	handleFence []int64
	// The kd tree over the cells, in preorder: 2*dim floats a node (Lo, then
	// Hi). The node over cells [lo, hi) has its left child next to it and its
	// right child 2*(mid-lo) boxes on, mid = codec.CellSplit(lo, hi); a leaf
	// is one cell, ranks [c*cell, (c+1)*cell).
	tree        []float64
	cell, cells int

	// Zero-copy typed columns (and the posting payload bytes), non-nil only
	// when the file is mapped on a little-endian host; otherwise reads go
	// through pager views.
	mHandles    []int64
	mEntryRank  []int32
	mPoints     []float64
	mRowHandles []int64
	mDocStart   []int64
	mDocWords   []uint32
	mPayload    []byte

	// readers recycles baseReaders across queries. The garbage collector
	// empties a sync.Pool, so the parked readers' pointers back to the base
	// do not keep a dropped base from being finalized (pinned by
	// TestPagedBaseDroppedAfterQueriesIsFinalized).
	readers sync.Pool

	closed atomic.Bool
}

// handlesPerPage is the number of handle column entries on one page (the
// section is page-aligned, as every KWCP2 section is).
const handlesPerPage = pager.PageSize / 8

// PagedBaseOptions configures OpenPagedBase.
type PagedBaseOptions struct {
	// CapPages bounds the resident pages of the pread buffer pool
	// (0 selects the pager default). Only meaningful with NoMmap — a mapped
	// file's residency belongs to the kernel.
	CapPages int
	// NoMmap forces the pread pool even where mmap is available: the
	// bounded-memory serving mode for datasets larger than RAM.
	NoMmap bool
}

// errBase tags structural corruption that page checksums cannot catch
// (a well-formed file describing impossible offsets), as codec.ErrCorrupt,
// which the decoding reader's refusals wrap too.
func errBase(format string, args ...any) error {
	return fmt.Errorf("%w: paged base: %s", codec.ErrCorrupt, fmt.Sprintf(format, args...))
}

// OpenPagedBase opens a checkpoint for in-place serving. The
// returned base holds a pager reference on the file until Close.
func OpenPagedBase(path string, o PagedBaseOptions) (*PagedBase, error) {
	var popts []pager.OpenOption
	if o.NoMmap {
		popts = append(popts, pager.WithoutMmap())
	}
	f, err := pager.Open(path, popts...)
	if err != nil {
		return nil, err
	}
	b, err := newPagedBase(f, o.CapPages)
	if err != nil {
		f.Unref()
		return nil, err
	}
	// A dropped base without Close must not pin the file (and, if retired,
	// its disk space) forever.
	runtime.SetFinalizer(b, func(b *PagedBase) { b.Close() })
	return b, nil
}

func newPagedBase(f *pager.File, capPages int) (*PagedBase, error) {
	c, err := codec.ParseContainer(f, f.Size())
	if err != nil {
		return nil, err
	}
	meta, err := codec.SnapshotMeta(c)
	if err != nil {
		return nil, err
	}
	b := &PagedBase{
		f:          f,
		pool:       pager.NewPool(f, capPages, c.PageCRCs),
		k:          int(meta.K),
		dim:        int(meta.Dim),
		count:      int64(meta.Count),
		lastSeq:    meta.LastSeq,
		nextHandle: int64(meta.NextHandle),
		cell:       codec.CellSize(int(meta.Dim)),
	}
	b.cells = int((b.count + int64(b.cell) - 1) / int64(b.cell))
	span := func(id uint32, want int64) (int64, error) {
		off, n, ok := c.Section(id)
		if !ok && want == 0 {
			return 0, nil
		}
		if !ok || (want >= 0 && n != want) {
			return 0, errBase("section %d is %d bytes, want %d", id, n, want)
		}
		return off, nil
	}
	if b.handlesOff, err = span(codec.SecHandles, 8*b.count); err != nil {
		return nil, err
	}
	if b.pointsOff, err = span(codec.SecPoints, 8*b.count*int64(b.dim)); err != nil {
		return nil, err
	}
	if b.rowHandlesOff, err = span(codec.SecRowHandles, 8*b.count); err != nil {
		return nil, err
	}
	if b.docStartOff, err = span(codec.SecDocStart, 8*(b.count+1)); err != nil {
		return nil, err
	}
	if b.entryRankOff, err = span(codec.SecEntryRank, 4*b.count); err != nil {
		return nil, err
	}
	if _, err = span(codec.SecCellBoxes, 16*int64(b.dim)*int64(b.cells)); err != nil {
		return nil, err
	}

	// Decode the resident metadata columns through the pool so their pages
	// are checksum-verified exactly once, here.
	vocabB, err := b.readSection(c, codec.SecVocab)
	if err != nil {
		return nil, err
	}
	listsB, err := b.readSection(c, codec.SecPostLists)
	if err != nil {
		return nil, err
	}
	blocksB, err := b.readSection(c, codec.SecPostBlocks)
	if err != nil {
		return nil, err
	}
	boxesB, err := b.readSection(c, codec.SecCellBoxes)
	if err != nil {
		return nil, err
	}
	if len(vocabB)%4 != 0 || len(listsB)%12 != 0 || len(blocksB)%16 != 0 {
		return nil, errBase("metadata section not a whole number of records")
	}
	if err := b.buildCellTree(codec.GetF64s(boxesB)); err != nil {
		return nil, err
	}
	b.vocab = leU32s(vocabB)
	if b.lists, err = codec.DecodePostLists(leI32s(listsB)); err != nil {
		return nil, err
	}
	if b.blocks, err = codec.DecodePostBlocks(leI32s(blocksB)); err != nil {
		return nil, err
	}
	_, wordsLen, _ := c.Section(codec.SecPostWords)
	if b.wordsOff, err = span(codec.SecPostWords, wordsLen); err != nil {
		return nil, err
	}
	if wordsLen%8 != 0 {
		return nil, errBase("posting payload not a whole number of words")
	}
	b.wordsN = wordsLen / 8
	if err := b.validateStructure(c); err != nil {
		return nil, err
	}
	if f.Mapped() && pager.CanCast() && b.count > 0 {
		raw := f.Bytes()
		sec := func(off, n int64) []byte { return raw[off : off+n] }
		b.mHandles = pager.CastI64(sec(b.handlesOff, 8*b.count))
		b.mEntryRank = pager.CastI32(sec(b.entryRankOff, 4*b.count))
		b.mPoints = pager.CastF64(sec(b.pointsOff, 8*b.count*int64(b.dim)))
		b.mRowHandles = pager.CastI64(sec(b.rowHandlesOff, 8*b.count))
		b.mDocStart = pager.CastI64(sec(b.docStartOff, 8*(b.count+1)))
		b.mDocWords = pager.CastU32(sec(b.docWordsOff, 4*b.docTotal))
		b.mPayload = sec(b.wordsOff, 8*b.wordsN)
		// All casts must land together: the readers key off mHandles.
		if b.mHandles == nil || b.mEntryRank == nil || b.mPoints == nil || b.mRowHandles == nil || b.mDocStart == nil || b.mDocWords == nil {
			b.mHandles, b.mEntryRank, b.mPoints, b.mRowHandles, b.mDocStart, b.mDocWords, b.mPayload = nil, nil, nil, nil, nil, nil, nil
		}
	}
	if b.mHandles != nil {
		// The cast readers bypass the pool, so lazy verify-on-first-pin never
		// fires for them; checksum every page once here instead. Still far
		// cheaper than a decode — one crc32c pass, no parsing, no build.
		for p := int64(0); p < f.NumPages(); p++ {
			fr, err := b.pool.Pin(p)
			if err != nil {
				return nil, err
			}
			fr.Unpin()
		}
	}
	return b, nil
}

// leU32s and leI32s decode whole little-endian columns (the resident
// metadata sections, read once at open).
func leU32s(b []byte) []uint32 {
	v := make([]uint32, len(b)/4)
	for i := range v {
		v[i] = uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24
	}
	return v
}

func leI32s(b []byte) []int32 {
	u := leU32s(b)
	v := make([]int32, len(u))
	for i := range u {
		v[i] = int32(u[i])
	}
	return v
}

// readSection reads a whole section through the pool (checksum-verifying
// its pages) into a fresh buffer.
func (b *PagedBase) readSection(c *codec.Container, id uint32) ([]byte, error) {
	off, n, _ := c.Section(id)
	return b.readSpan(off, n)
}

// readSpan reads the file bytes [off, off+n) through the pool into a fresh
// buffer (nil when n is 0).
func (b *PagedBase) readSpan(off, n int64) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	v, err := pager.NewView(b.pool, off, n)
	if err != nil {
		return nil, err
	}
	defer v.Release()
	buf := make([]byte, n)
	v.Read(0, buf)
	if err := v.Err(); err != nil {
		return nil, err
	}
	return buf, nil
}

// scanPages calls fn with each page of the section [off, off+n) in order —
// rel is the page's offset in the section — once the pool has verified the
// page's checksum, so a damaged page is reported as one and never judged by
// its contents.
func (b *PagedBase) scanPages(off, n int64, fn func(rel int64, page []byte) error) error {
	v, err := pager.NewView(b.pool, off, n)
	if err != nil {
		return err
	}
	defer v.Release()
	scratch := make([]byte, pager.PageSize)
	for rel := int64(0); rel < n; rel += pager.PageSize {
		page := v.Span(rel, min(pager.PageSize, n-rel), scratch)
		if page == nil {
			return v.Err()
		}
		if err := fn(rel, page); err != nil {
			return err
		}
	}
	return nil
}

// buildCellTree shape-checks the stored cell boxes (no NaN, lo <= hi; an
// infinite bound is what the writer gives a cell holding a non-finite
// coordinate) and fills the tree from them: a leaf's box is its cell's, an
// inner node's the union of its children's.
func (b *PagedBase) buildCellTree(leaves []float64) error {
	d := b.dim
	for c := 0; c < b.cells; c++ {
		for j := 0; j < d; j++ {
			if lo, hi := leaves[2*d*c+j], leaves[2*d*c+d+j]; !(lo <= hi) {
				return errBase("cell %d box is [%v, %v] on axis %d", c, lo, hi, j)
			}
		}
	}
	if b.cells == 0 {
		return nil
	}
	b.tree = make([]float64, 2*d*(2*b.cells-1))
	var fill func(node, lo, hi int) []float64
	fill = func(node, lo, hi int) []float64 {
		box := b.tree[2*d*node : 2*d*(node+1)]
		if hi-lo == 1 {
			copy(box, leaves[2*d*lo:2*d*hi])
			return box
		}
		mid := codec.CellSplit(lo, hi)
		l, r := fill(node+1, lo, mid), fill(node+2*(mid-lo), mid, hi)
		for j := 0; j < d; j++ {
			box[j], box[d+j] = min(l[j], r[j]), max(l[d+j], r[d+j])
		}
		return box
	}
	fill(0, 0, b.cells)
	return nil
}

// validateStructure checks every offset-bearing column the scan path will
// trust: handle order, document offsets, the entry -> rank column,
// vocabulary order, and posting list/block geometry. Runs once at open;
// touches only those columns, a page at a time.
func (b *PagedBase) validateStructure(c *codec.Container) error {
	// Handles: strictly increasing, below the watermark.
	prev := int64(-1)
	b.handleFence = make([]int64, 0, (b.count+handlesPerPage-1)/handlesPerPage)
	err := b.scanPages(b.handlesOff, 8*b.count, func(rel int64, page []byte) error {
		b.handleFence = append(b.handleFence, int64(binary.LittleEndian.Uint64(page)))
		for i := 0; i < len(page); i += 8 {
			h := int64(binary.LittleEndian.Uint64(page[i:]))
			if h <= prev {
				return errBase("handles not strictly increasing at index %d", (rel+int64(i))/8)
			}
			prev = h
		}
		return nil
	})
	if err != nil {
		return err
	}
	if b.count > 0 && prev >= b.nextHandle {
		return errBase("handle %d at or past watermark %d", prev, b.nextHandle)
	}

	// Document offsets: zero-based, strictly increasing (documents are
	// non-empty), consistent with the words section length.
	last := int64(-1)
	err = b.scanPages(b.docStartOff, 8*(b.count+1), func(rel int64, page []byte) error {
		for i := 0; i < len(page); i += 8 {
			s, at := int64(binary.LittleEndian.Uint64(page[i:])), (rel+int64(i))/8
			if at == 0 && s != 0 {
				return errBase("document offsets do not start at 0")
			}
			if at > 0 && s <= last {
				return errBase("empty or out-of-order document at rank %d", at-1)
			}
			last = s
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.docTotal = last
	var dwWant int64 = 4 * b.docTotal
	off, n, ok := c.Section(codec.SecDocWords)
	if b.docTotal == 0 {
		if ok && n != 0 {
			return errBase("document words present for an empty snapshot")
		}
	} else if !ok || n != dwWant {
		return errBase("document words sized %d, offsets claim %d", n, dwWant)
	}
	b.docWordsOff = off

	// Entry -> rank column: a permutation of the ranks.
	seen := make([]uint64, (b.count+63)/64)
	err = b.scanPages(b.entryRankOff, 4*b.count, func(rel int64, page []byte) error {
		for i := 0; i < len(page); i += 4 {
			r := int32(binary.LittleEndian.Uint32(page[i:]))
			if r < 0 || int64(r) >= b.count || seen[r>>6]&(1<<(r&63)) != 0 {
				return errBase("entry -> rank column is not a permutation at entry %d", (rel+int64(i))/4)
			}
			seen[r>>6] |= 1 << (r & 63)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Vocabulary and posting geometry.
	if len(b.lists) != len(b.vocab) {
		return errBase("%d posting lists for %d keywords", len(b.lists), len(b.vocab))
	}
	var total int64
	for i, l := range b.lists {
		if i > 0 && b.vocab[i] <= b.vocab[i-1] {
			return errBase("vocabulary not sorted at entry %d", i)
		}
		if l.Block < 0 || l.NumBlocks < 0 || int64(l.Block)+int64(l.NumBlocks) > int64(len(b.blocks)) {
			return errBase("posting list %d blocks out of range", i)
		}
		var n int64
		prevMax := int32(0)
		for _, blk := range b.blocks[l.Block : l.Block+l.NumBlocks] {
			if blk.N < 1 || blk.N > bitpack.BlockSize || blk.W > 32 {
				return errBase("posting block geometry invalid in list %d", i)
			}
			if blk.Off < 0 || int64(blk.Off)+int64(blk.Words()) > b.wordsN {
				return errBase("posting block payload out of range in list %d", i)
			}
			if blk.First < 0 || int64(blk.Max) >= b.count || blk.First > blk.Max {
				return errBase("posting block ranks outside [0,%d) in list %d", b.count, i)
			}
			// The query skips whole blocks on Max, which is only sound over
			// a directory in ascending rank order.
			if blk.First < prevMax {
				return errBase("posting blocks out of order in list %d", i)
			}
			prevMax = blk.Max
			n += int64(blk.N)
		}
		if n != int64(l.N) {
			return errBase("posting list %d claims %d values, blocks hold %d", i, l.N, n)
		}
		total += n
	}
	if total != b.docTotal {
		return errBase("%d postings for %d document words", total, b.docTotal)
	}
	return nil
}

// Close releases the pager reference. Outstanding queries must have
// drained: over a mapped file their reads would fault after the unmap.
func (b *PagedBase) Close() error {
	if b.closed.Swap(true) {
		return nil
	}
	runtime.SetFinalizer(b, nil)
	b.pool.Close()
	return b.f.Unref()
}

// Path returns the checkpoint file the base serves from.
func (b *PagedBase) Path() string { return b.f.Path() }

// Len returns the number of entries in the base (tombstones at the dynamic
// layer are not subtracted here).
func (b *PagedBase) Len() int { return int(b.count) }

// K returns the query keyword arity recorded in the checkpoint.
func (b *PagedBase) K() int { return b.k }

// Dim returns the point dimensionality recorded in the checkpoint.
func (b *PagedBase) Dim() int { return b.dim }

// LastSeq returns the WAL sequence the checkpoint covers.
func (b *PagedBase) LastSeq() uint64 { return b.lastSeq }

// NextHandle returns the handle watermark recorded in the checkpoint.
func (b *PagedBase) NextHandle() int64 { return b.nextHandle }

// Pool exposes the buffer pool for instrumentation (resident pages, cap).
func (b *PagedBase) Pool() *pager.Pool { return b.pool }

// Has reports whether handle names a row of the base. The ascending handle
// column finds the entry, and the entry -> rank column leads to the row,
// which must hold the handle: what the handle column says is confirmed, so
// it can hide a row but never invent one. Over a pread pool the resident
// fence names the one page of the handle column that can hold the handle,
// so a lookup pins at most three pages.
func (b *PagedBase) Has(handle int64) bool {
	if b.mHandles != nil {
		e := sort.Search(int(b.count), func(i int) bool { return b.mHandles[i] >= handle })
		return e < int(b.count) && b.mHandles[e] == handle && b.mRowHandles[b.mEntryRank[e]] == handle
	}
	p := sort.Search(len(b.handleFence), func(p int) bool { return b.handleFence[p] > handle }) - 1
	if p < 0 {
		return false
	}
	fr, err := b.pool.Pin(b.handlesOff/pager.PageSize + int64(p))
	if err != nil {
		return false
	}
	at := func(i int) int64 { return int64(binary.LittleEndian.Uint64(fr.Data[8*i:])) }
	n := int(min(handlesPerPage, b.count-int64(p)*handlesPerPage))
	i := sort.Search(n, func(i int) bool { return at(i) >= handle })
	found := i < n && at(i) == handle
	fr.Unpin()
	if !found {
		return false
	}
	// Open checked the entry -> rank column is a permutation.
	rank, ok := b.pinWord(b.entryRankOff+4*(int64(p)*handlesPerPage+int64(i)), 4)
	if !ok {
		return false
	}
	row, ok := b.pinWord(b.rowHandlesOff+8*int64(rank), 8)
	return ok && int64(row) == handle
}

// pinWord reads the little-endian word of 4 or 8 bytes at file offset off,
// which a page holds whole (sections are page-aligned, words aligned), with
// one pin.
func (b *PagedBase) pinWord(off int64, size int) (uint64, bool) {
	fr, err := b.pool.Pin(off / pager.PageSize)
	if err != nil {
		return 0, false
	}
	defer fr.Unpin()
	word := fr.Data[off%pager.PageSize:]
	if size == 4 {
		return uint64(binary.LittleEndian.Uint32(word)), true
	}
	return binary.LittleEndian.Uint64(word), true
}

// listFor returns the posting list of keyword w, if present.
func (b *PagedBase) listFor(w dataset.Keyword) (bitpack.List, bool) {
	i := sort.Search(len(b.vocab), func(i int) bool { return b.vocab[i] >= w })
	if i >= len(b.vocab) || b.vocab[i] != w {
		return bitpack.List{}, false
	}
	return b.lists[i], true
}

// listCursor walks one posting list in ascending rank order. Its position
// advances over the resident block directory; a block's payload is fetched
// and decoded only when the directory cannot answer a seek by itself.
type listCursor struct {
	blocks []bitpack.Block // the list's directory entries
	n      int32           // list length, the intersection's ordering key
	bi     int             // current block
	dec    int             // block whose ranks vals holds, -1 for none
	pos    int             // scan position in vals
	vals   []int32         // decoded ranks, capacity BlockSize
	ww     *pager.View     // posting payload (pread mode; nil when mapped)
}

// baseReader bundles the per-query cursors, views and scratch buffers of one
// scan. Readers are recycled through PagedBase.readers.
type baseReader struct {
	b              *PagedBase
	pv, hv, dv, wv *pager.View   // the rows by rank: points, handles, doc offsets, doc words (pread mode)
	views          []*pager.View // every view the reader holds, cursors' included
	cur            []listCursor  // one per query keyword
	runs           []int32       // the query's cell runs, [lo, hi) pairs ascending
	obj            dataset.Object
	pt             geom.Point
	ptBuf          []byte
	doc            []dataset.Keyword
	blockBuf       [bitpack.MaxBlockBytes]byte // a block payload that crosses a page boundary
}

func (b *PagedBase) newReader() (*baseReader, error) {
	r := &baseReader{b: b, cur: make([]listCursor, b.k), runs: make([]int32, 0, 64)}
	vals := make([]int32, b.k*bitpack.BlockSize)
	for i := range r.cur {
		r.cur[i].vals = vals[i*bitpack.BlockSize : i*bitpack.BlockSize : (i+1)*bitpack.BlockSize]
	}
	if b.mHandles != nil {
		return r, nil
	}
	var err error
	mk := func(off, n int64) *pager.View {
		if err != nil || n == 0 {
			return nil
		}
		var v *pager.View
		if v, err = pager.NewView(b.pool, off, n); err == nil {
			r.views = append(r.views, v)
		}
		return v
	}
	r.pv = mk(b.pointsOff, 8*b.count*int64(b.dim))
	r.hv = mk(b.rowHandlesOff, 8*b.count)
	r.dv = mk(b.docStartOff, 8*(b.count+1))
	r.wv = mk(b.docWordsOff, 4*b.docTotal)
	for i := range r.cur {
		r.cur[i].ww = mk(b.wordsOff, 8*b.wordsN)
	}
	if err != nil {
		return nil, err
	}
	r.pt = make(geom.Point, b.dim)
	r.ptBuf = make([]byte, 8*b.dim)
	return r, nil
}

// getReader takes a reader from the pool, or makes one.
func (b *PagedBase) getReader() (*baseReader, error) {
	if r, _ := b.readers.Get().(*baseReader); r != nil {
		return r, nil
	}
	return b.newReader()
}

// putReader unpins the reader's pages and parks it for the next query. View
// errors are sticky, so a reader that hit one is dropped instead.
func (b *PagedBase) putReader(r *baseReader) {
	failed := r.err() != nil
	for _, v := range r.views {
		v.Release()
	}
	if !failed {
		b.readers.Put(r)
	}
}

// err returns the first sticky error across the reader's views.
func (r *baseReader) err() error {
	for _, v := range r.views {
		if err := v.Err(); err != nil {
			return err
		}
	}
	return nil
}

// seek returns the smallest rank >= target that c's list holds at or after
// its current position, or false once the list is exhausted (or a payload
// read failed — r.err tells which). Targets must not decrease between calls.
func (r *baseReader) seek(c *listCursor, target int32) (int32, bool) {
	for c.bi < len(c.blocks) {
		blk := &c.blocks[c.bi]
		if blk.Max < target {
			// Gallop over the directory to the first block that can hold
			// target: no block in between is read.
			lo, step := c.bi, 1
			for lo+step < len(c.blocks) && c.blocks[lo+step].Max < target {
				lo += step
				step <<= 1
			}
			hi := min(lo+step, len(c.blocks))
			for lo+1 < hi {
				if mid := (lo + hi) / 2; c.blocks[mid].Max < target {
					lo = mid
				} else {
					hi = mid
				}
			}
			c.bi = hi
			continue
		}
		if target <= blk.First {
			return blk.First, true
		}
		if c.dec != c.bi {
			if !r.decode(c, blk) {
				return 0, false
			}
			c.dec, c.pos = c.bi, 0
		}
		for c.pos < len(c.vals) && c.vals[c.pos] < target {
			c.pos++
		}
		if c.pos < len(c.vals) {
			return c.vals[c.pos], true
		}
		c.bi++ // only a block whose Max is not among its ids ends up here
	}
	return 0, false
}

// decode fills c.vals with blk's ranks, straight from the mapping or from the
// pinned page the payload lies on.
func (r *baseReader) decode(c *listCursor, blk *bitpack.Block) bool {
	var payload []byte
	if n := 8 * int64(blk.Words()); n > 0 {
		off := 8 * int64(blk.Off)
		if r.b.mPayload != nil {
			payload = r.b.mPayload[off : off+n]
		} else if payload = c.ww.Span(off, n, r.blockBuf[:]); payload == nil {
			return false
		}
	}
	c.vals = bitpack.DecodeBlockBytes(*blk, payload, c.vals[:0])
	return true
}

// handleAt returns the handle of the row at the given rank.
func (r *baseReader) handleAt(rank int64) int64 {
	if r.b.mRowHandles != nil {
		return r.b.mRowHandles[rank]
	}
	return r.hv.I64(8 * rank)
}

// pointAt returns the point at the given rank (mapped subslice or scratch
// copy), or nil when the read failed.
func (r *baseReader) pointAt(rank int64) geom.Point {
	d := int64(r.b.dim)
	if r.b.mPoints != nil {
		return r.b.mPoints[rank*d : (rank+1)*d]
	}
	raw := r.pv.Span(8*rank*d, 8*d, r.ptBuf)
	if raw == nil {
		return nil
	}
	for j := range r.pt {
		r.pt[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
	}
	return r.pt
}

// docAt returns the document of the row at the given rank (mapped subslice
// or scratch copy).
func (r *baseReader) docAt(rank int64) []dataset.Keyword {
	if r.b.mDocWords != nil {
		return r.b.mDocWords[r.b.mDocStart[rank]:r.b.mDocStart[rank+1]]
	}
	lo, hi := r.dv.I64(8*rank), r.dv.I64(8*(rank+1))
	if hi <= lo || r.dv.Err() != nil {
		return nil
	}
	n := hi - lo
	if cap(r.doc) < int(n) {
		r.doc = make([]dataset.Keyword, n, n+16)
	}
	r.doc = r.doc[:n]
	for j := int64(0); j < n; j++ {
		r.doc[j] = r.wv.U32(4 * (lo + j))
	}
	return r.doc
}

// cover descends the cell tree from the node over cells [lo, hi) and appends
// to r.runs the cells whose boxes meet q, merged into maximal ascending
// runs. A covered node joins whole, without a visit to its descendants.
func (r *baseReader) cover(st *QueryStats, q *geom.Rect, node, lo, hi int) {
	d := r.b.dim
	box := r.b.tree[2*d*node : 2*d*(node+1)]
	st.NodesVisited++
	rel := q.RelateRect(box[:d], box[d:])
	if rel == geom.Disjoint {
		return
	}
	if rel == geom.Covered {
		st.CoveredNodes++
	} else {
		st.CrossingNodes++
	}
	if rel == geom.Crossing && hi-lo > 1 {
		mid := codec.CellSplit(lo, hi)
		r.cover(st, q, node+1, lo, mid)
		r.cover(st, q, node+2*(mid-lo), mid, hi)
		return
	}
	if n := len(r.runs); n > 0 && r.runs[n-1] == int32(lo) {
		r.runs[n-1] = int32(hi)
		return
	}
	r.runs = append(r.runs, int32(lo), int32(hi))
}

// Query reports (handle, object) for every base entry in q whose document
// contains all k keywords, in rank order: cell by cell along the kd leaf
// order, not by ascending handle. The reported object is the reader's
// scratch, valid only for the duration of the callback; in mapped mode its
// Point and Doc alias the mapping and remain valid until Close. Tombstone
// filtering is the caller's job (the dynamic layer owns the tombstone set).
//
// NodesVisited, CoveredNodes and CrossingNodes count the cell-tree descent.
// Ops counts the candidates taken from the shortest list inside the runs of
// cells the rectangle meets — each one a rank the other lists were asked
// about — so Budget and ExecPolicy.NodeBudget bound the intersection; ranks
// a longer list let the scan leap over, and ranks outside the runs, are never
// examined and never charged. The stop conditions are checked once per run
// as well, so a rectangle of many runs and few candidates still polls its
// deadline.
func (b *PagedBase) Query(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts, report func(handle int64, obj *dataset.Object)) (st QueryStats, err error) {
	if len(ws) != b.k {
		return st, fmt.Errorf("%w: query carries %d keywords but the base holds k=%d", ErrInvalidQuery, len(ws), b.k)
	}
	if err := dataset.ValidateKeywords(ws); err != nil {
		return st, fmt.Errorf("%w: %v", ErrInvalidQuery, err)
	}
	if err := validateRect(q, b.dim); err != nil {
		return st, err
	}
	opts = opts.normalized()
	if b.count == 0 {
		return st, nil
	}
	r, err := b.getReader()
	if err != nil {
		return st, err
	}
	defer b.putReader(r)
	// One cursor per keyword, shortest list first: it drives the scan. Any
	// keyword absent from the vocabulary empties the result.
	for i, w := range ws {
		l, ok := b.listFor(w)
		if !ok {
			return st, nil
		}
		c := &r.cur[i]
		c.blocks, c.n, c.bi, c.dec = b.blocks[l.Block:l.Block+l.NumBlocks], l.N, 0, -1
		for j := i; j > 0 && r.cur[j].n < r.cur[j-1].n; j-- {
			r.cur[j], r.cur[j-1] = r.cur[j-1], r.cur[j]
		}
	}
	r.runs = r.runs[:0]
	r.cover(&st, q, 0, 0, b.cells)
	drive, rest := &r.cur[0], r.cur[1:]
	ps := newPolState(opts.Policy)
	// stopped applies Budget and the policy to the work done so far.
	stopped := func() (bool, error) {
		if opts.Budget > 0 && st.Ops > opts.Budget {
			st.BudgetHit, st.Truncated = true, true
			return true, r.err()
		}
		if err := ps.check(&st, st.Ops); err != nil {
			return true, err
		}
		return false, nil
	}
	// target is the lowest rank that can still be in the intersection. It
	// only rises, across runs too, which is what seek requires; a run a list
	// has already leapt past is skipped without a seek.
	target := int32(0)
	for i := 0; i < len(r.runs); i += 2 {
		lo := int32(int(r.runs[i]) * b.cell)
		hi := int32(min(int64(r.runs[i+1])*int64(b.cell), b.count))
		if target >= hi {
			continue
		}
		target = max(target, lo)
		if stop, err := stopped(); stop {
			return st, err
		}
	next:
		for target < hi {
			rank, ok := r.seek(drive, target)
			if !ok {
				return st, r.err()
			}
			if target = rank; rank >= hi {
				break
			}
			st.Ops++
			st.MatScanned++
			if stop, err := stopped(); stop {
				return st, err
			}
			// Leapfrog: a list whose next rank lies past the candidate names
			// the next rank worth asking the drive list about.
			for j := range rest {
				v, ok := r.seek(&rest[j], rank)
				if !ok {
					return st, r.err()
				}
				if v != rank {
					target = v
					continue next
				}
			}
			// rank is in all k lists: only now does the scan leave the
			// posting section, for the rank's point, and only inside the
			// rectangle for the rest of its row.
			target = rank + 1
			p := r.pointAt(int64(rank))
			if p == nil {
				return st, r.err()
			}
			if !q.ContainsPoint(p) {
				continue
			}
			if opts.Limit > 0 && st.Reported >= opts.Limit {
				st.Truncated = true
				return st, nil
			}
			r.obj = dataset.Object{Point: p, Doc: r.docAt(int64(rank))}
			h := r.handleAt(int64(rank))
			if err := r.err(); err != nil {
				return st, err
			}
			// The lists are an index, not the truth: an entry is reported on
			// its own document.
			if !docHasAll(r.obj.Doc, ws) {
				continue
			}
			report(h, &r.obj)
			st.Reported++
		}
	}
	return st, r.err()
}

// Entries decodes every base entry into the four columns — the
// checkpoint-writing path, which is allowed to touch the whole file. Each
// row section is read once, in file order, and gathered back into entry
// order through the entry -> rank column (codec.Rows.Entries), which also
// refuses a row that does not hold its entry's handle.
func (b *PagedBase) Entries() ([]int64, *dataset.Dataset, error) {
	var rows codec.Rows
	for _, s := range []struct {
		into   *[]byte
		off, n int64
	}{
		{&rows.Handles, b.handlesOff, 8 * b.count},
		{&rows.EntryRank, b.entryRankOff, 4 * b.count},
		{&rows.Points, b.pointsOff, 8 * b.count * int64(b.dim)},
		{&rows.RowHandles, b.rowHandlesOff, 8 * b.count},
		{&rows.DocStart, b.docStartOff, 8 * (b.count + 1)},
		{&rows.DocWords, b.docWordsOff, 4 * b.docTotal},
	} {
		// With the casts active open verified every page, so the mapping
		// is read in place.
		if b.mHandles != nil {
			*s.into = b.f.Bytes()[s.off : s.off+s.n]
			continue
		}
		var err error
		if *s.into, err = b.readSpan(s.off, s.n); err != nil {
			return nil, nil, err
		}
	}
	return rows.Entries(b.dim, b.nextHandle)
}
