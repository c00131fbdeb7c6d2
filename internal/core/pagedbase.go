package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
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
// buffer/buckets as usual (see RestoreDynamicORPKWFromBase).
//
// The checkpoint stores its rows — point, handle, document — and numbers its
// postings by rank, BuildORPKW's rank over the same entries (checkpoint.go),
// beside the kd tree of that order cut at one cell: every node is a rank
// interval whose first rank is its pivot. The tree is resident — a span and
// a box a node, read at open — so a query first descends it with the
// rectangle to the ascending runs of ranks the rectangle may hold, and then
// intersects the k posting lists inside those runs only, with the leapfrog a
// framework stop node runs (query.go): driven off the shortest list, every
// cursor seeking to a run's first rank and leaving at its last. Each list is
// a bitpack.Cursor on the resident block directory (First/Max per 128-rank
// block): a block is skipped when its Max lies below the sought rank and
// answers from its First when the rank lies at or below it, so a posting page
// is read only for a block whose range really straddles the rank — from the
// mapping, or through the cursor's own view of the pool. Posting blocks,
// candidates and point pages outside the runs are never touched; a rank
// found in all k lists reads its point, and one inside the rectangle its
// document and handle from the same rank's rows — neighbours in the file,
// as they are in space: O(posting pages inside the runs + |intersection
// inside the runs| point reads, about a page per stored leaf + the row pages
// of OUT) page reads per query, against none for the tree and the
// directory. The rectangle prunes before the lists are read, but the plan is
// still keywords first:
// inside a run nothing bounds the intersection by N^(1-1/k), so Theorem 1's
// bound is forfeited while the base serves — the out-of-core trade: bounded
// memory and instant start against more work per query.
//
// It is the one reader of a checkpoint. Open validates what a query trusts
// — the meta, every section's size, and the structural metadata (vocabulary,
// posting-list and block directories, the stored tree, the handle column,
// document offsets, the entry -> rank column) — eagerly, O(vocabulary +
// blocks + entries), no payload page touched beyond those columns, so the
// scan path can trust offsets without re-checking; a violation is an error
// wrapping codec.ErrCorrupt. Every page is checksum-verified on first pin
// (all at open when the file is mapped); a mismatch is pager.ErrChecksum.
// What open cannot check is that the index sections tell the truth about the
// rows: a tree box that leaves out one of its points, or a posting list that
// leaves out a rank, hides a match. Neither can report a wrong one: every
// reported row has had its own point tested against the rectangle and its
// own document against the keywords, and Has confirms what the handle column
// says against the row it leads to. A reader that takes the whole file in
// (ReadPagedSnapshot: recovery into memory, a follower validating a
// download) adds verify (every page, every tree box against what it bounds)
// and entries (every row against its entry).
type PagedBase struct {
	f    *pager.File
	pool *pager.Pool

	k, dim     int
	count      int64
	lastSeq    uint64
	nextHandle int64

	// The row sections' absolute byte offsets and lengths, by their position
	// in ckptRowSecs; the document words they hold; the posting payload's
	// offset and length.
	rowOff, rowLen     [numRowSecs]int64
	docTotal           int64
	wordsOff, wordsLen int64

	// Always-resident metadata columns (small: O(vocabulary + blocks + tree)).
	vocab  []uint32
	lists  []bitpack.List
	blocks []bitpack.Block
	// handleFence[p] is the first handle on page p of the handles section, so
	// Has finds the one page that can hold a handle without reading any.
	handleFence []int64
	// The kd tree of the rank order cut at one cell (checkpoint.go), in
	// preorder: node i spans spans[i] ranks, its box is the 2*dim floats at
	// tree[2*dim*i] (Lo, then Hi), and next[i] is the node past its subtree.
	// A node spanning more than cell ranks is inner: its first rank is its
	// pivot, and its one or two children follow it, node i+1 first, over the
	// rest of its ranks. Any other node is a stored leaf.
	tree  []float64
	spans []int32
	next  []int32
	cell  int

	// The row sections as zero-copy columns, set only when the file is
	// mapped on a little-endian host (mapped), and the posting lists over the
	// mapped payload, the cursors' Source then; otherwise reads go through
	// pager views.
	m         ckptRows
	mPostings bitpack.PackedLists

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
// (a well-formed file describing impossible offsets) as codec.ErrCorrupt.
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
	meta, err := snapshotMeta(c)
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
		cell:       cellSize(int(meta.Dim)),
	}
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
	// Every row section is sized by the meta, the document words by their own
	// section: the document offsets must end at its length (validateRows).
	_, words, _ := c.Section(codec.SecDocWords)
	b.docTotal = words / 4
	for i, row := range ckptRowSecs {
		b.rowLen[i] = row.width * row.values(b.count, int64(b.dim), b.docTotal)
		if b.rowOff[i], err = span(row.id, b.rowLen[i]); err != nil {
			return nil, err
		}
	}
	// The stored tree: a record a node, each holding a rank of its own (an
	// inner node its pivot, a leaf its span), so no more than count of them.
	_, spansLen, _ := c.Section(codec.SecTreeSpans)
	nodes := spansLen / 4
	if _, err = span(codec.SecTreeBoxes, 16*int64(b.dim)*nodes); err != nil {
		return nil, err
	}
	if spansLen%4 != 0 || nodes > b.count || (nodes == 0) != (b.count == 0) {
		return nil, errBase("%d bytes of tree spans for %d entries", spansLen, b.count)
	}

	// Decode the resident metadata columns through the pool so their pages
	// are checksum-verified exactly once, here.
	var index [5][]byte
	for i, id := range []uint32{codec.SecVocab, codec.SecPostLists, codec.SecPostBlocks, codec.SecTreeSpans, codec.SecTreeBoxes} {
		off, n, _ := c.Section(id)
		if index[i], err = b.readSpan(off, n); err != nil {
			return nil, err
		}
	}
	if err := b.parseTree(codec.Get[int32](index[3]), codec.Get[float64](index[4])); err != nil {
		return nil, err
	}
	_, b.wordsLen, _ = c.Section(codec.SecPostWords)
	if b.wordsOff, err = span(codec.SecPostWords, b.wordsLen); err != nil {
		return nil, err
	}
	if err := b.validateRows(); err != nil {
		return nil, err
	}
	post, err := parsePostings(index[0], index[1], index[2], b.wordsLen, b.count, b.docTotal)
	if err != nil {
		return nil, err
	}
	b.vocab, b.lists, b.blocks = post.vocab, post.lists, post.blocks
	if f.Mapped() && pager.CanCast() && b.count > 0 {
		raw := f.Bytes()
		// All casts must land together: the readers key off mapped.
		cast := true
		for i, row := range ckptRowSecs {
			cast = row.cast(&b.m, raw[b.rowOff[i]:b.rowOff[i]+b.rowLen[i]]) && cast
		}
		if !cast {
			b.m = ckptRows{}
		} else {
			b.mPostings = bitpack.FromRaw(raw[b.wordsOff:b.wordsOff+b.wordsLen], b.blocks)
			// The cast readers bypass the pool, so lazy verify-on-first-pin
			// never fires for them; checksum every page once here instead.
			// Still far cheaper than a decode — one crc32c pass, no parsing,
			// no build.
			if err := b.verifyPages(); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// mapped reports whether the row sections are read as zero-copy columns.
func (b *PagedBase) mapped() bool { return b.m.handles != nil }

// verifyPages pins every page of the file once, so the pool checks each
// page's checksum.
func (b *PagedBase) verifyPages() error {
	for p := int64(0); p < b.f.NumPages(); p++ {
		fr, err := b.pool.Pin(p)
		if err != nil {
			return err
		}
		fr.Unpin()
	}
	return nil
}

// verify runs the checks open leaves out because no query needs them: every
// page's checksum (open has already run it over a mapped file with the casts
// active), and every box of the stored tree against what it bounds — a
// stored leaf's against the points of its ranks, an inner node's against its
// pivot's point and its children's boxes — a box that leaves one out being
// codec.ErrCorrupt. A reader that takes the whole file in
// (ReadPagedSnapshot) calls it; serving in place never does.
func (b *PagedBase) verify() error {
	if !b.mapped() {
		if err := b.verifyPages(); err != nil {
			return err
		}
	}
	if b.count == 0 {
		return nil
	}
	r, err := b.getReader()
	if err != nil {
		return err
	}
	defer b.putReader(r)
	// In preorder an inner node's pivot comes before its children's ranks,
	// so the nodes are checked in order with the points read once, in rank
	// order.
	d, rank := b.dim, int64(0)
	for node, span := range b.spans {
		box := b.tree[2*d*node : 2*d*(node+1)]
		end := rank + int64(span)
		if int(span) > b.cell {
			end = rank + 1
			for c := node + 1; c < int(b.next[node]); c = int(b.next[c]) {
				if cb := b.tree[2*d*c : 2*d*(c+1)]; !boxHolds(box, cb[:d]) || !boxHolds(box, cb[d:]) {
					return errBase("tree node %d box does not hold its child %d's", node, c)
				}
			}
		}
		for ; rank < end; rank++ {
			p := r.pointAt(rank)
			if p == nil {
				return r.err()
			}
			if !boxHolds(box, p) {
				return errBase("tree node %d box does not hold the point at rank %d", node, rank)
			}
		}
	}
	return nil
}

// boxHolds reports whether box, dim lows then dim highs, holds the point p.
func boxHolds(box, p []float64) bool {
	d := len(p)
	for j, v := range p {
		if !(box[j] <= v && v <= box[d+j]) {
			return false
		}
	}
	return true
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

// scanPages calls fn with each page of row section col in order — rel is
// the page's offset in the section — once the pool has verified the page's
// checksum, so a damaged page is reported as one and never judged by its
// contents.
func (b *PagedBase) scanPages(col int, fn func(rel int64, page []byte) error) error {
	n := b.rowLen[col]
	v, err := pager.NewView(b.pool, b.rowOff[col], n)
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

// parseTree checks the stored tree against what cover and verify rely on
// and keeps it resident: every box of sound shape (no NaN, lo <= hi; an
// infinite bound is what a node holding a non-finite coordinate gets); the
// root spans every rank; a node spanning more than a cell is followed by its
// children (the writer's one or two), each spanning at least one rank, whose
// spans sum to its own less its pivot; the records end with the root's
// subtree. Open has sized the sections and bounded the records by the count.
func (b *PagedBase) parseTree(spans []int32, boxes []float64) error {
	d := b.dim
	for i := range spans {
		for j := 0; j < d; j++ {
			if lo, hi := boxes[2*d*i+j], boxes[2*d*i+d+j]; !(lo <= hi) {
				return errBase("tree node %d box is [%v, %v] on axis %d", i, lo, hi, j)
			}
		}
	}
	b.tree, b.spans, b.next = boxes, spans, make([]int32, len(spans))
	// open holds the inner nodes whose children are still being read, each
	// with the ranks its children have yet to span.
	type inner struct{ node, rest int32 }
	var open []inner
	for i, s := range spans {
		if len(open) == 0 {
			if i > 0 {
				return errBase("%d tree records past the root's subtree", len(spans)-i)
			}
			if int64(s) != b.count {
				return errBase("tree root spans %d ranks of %d", s, b.count)
			}
		} else {
			p := &open[len(open)-1]
			if s < 1 || s > p.rest {
				return errBase("tree node %d spans %d ranks where its parent %d leaves %d", i, s, p.node, p.rest)
			}
			p.rest -= s
		}
		if int(s) > b.cell {
			open = append(open, inner{int32(i), s - 1})
			continue
		}
		b.next[i] = int32(i + 1)
		for len(open) > 0 && open[len(open)-1].rest == 0 {
			b.next[open[len(open)-1].node] = int32(i + 1)
			open = open[:len(open)-1]
		}
	}
	if len(open) > 0 {
		p := open[len(open)-1]
		return errBase("the records end with %d ranks of tree node %d left to its children", p.rest, p.node)
	}
	return nil
}

// validateRows checks the offset-bearing row columns the query path will
// trust: handle order, document offsets and the entry -> rank column (the
// posting directory is parsePostings'). Runs once at open; touches only
// those columns, a page at a time.
func (b *PagedBase) validateRows() error {
	// Handles: strictly increasing, below the watermark.
	prev := int64(-1)
	b.handleFence = make([]int64, 0, (b.count+handlesPerPage-1)/handlesPerPage)
	err := b.scanPages(colHandles, func(rel int64, page []byte) error {
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
	// non-empty), ending at the words section's length.
	last := int64(-1)
	err = b.scanPages(colDocStart, func(rel int64, page []byte) error {
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
	if last != b.docTotal {
		return errBase("document offsets end at %d, the words section holds %d", last, b.docTotal)
	}

	// Entry -> rank column: a permutation of the ranks.
	seen := make([]uint64, (b.count+63)/64)
	return b.scanPages(colEntryRank, func(rel int64, page []byte) error {
		for i := 0; i < len(page); i += 4 {
			r := int32(binary.LittleEndian.Uint32(page[i:]))
			if r < 0 || int64(r) >= b.count || seen[r>>6]&(1<<(r&63)) != 0 {
				return errBase("entry -> rank column is not a permutation at entry %d", (rel+int64(i))/4)
			}
			seen[r>>6] |= 1 << (r & 63)
		}
		return nil
	})
}

// Close releases the pager reference. Outstanding queries must have
// drained: over a mapped file their reads would fault after the unmap.
// Closing a nil base does nothing.
func (b *PagedBase) Close() error {
	if b == nil || b.closed.Swap(true) {
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
	if m := &b.m; b.mapped() {
		e := sort.Search(int(b.count), func(i int) bool { return m.handles[i] >= handle })
		return e < int(b.count) && m.handles[e] == handle && m.rowHandles[m.entryRank[e]] == handle
	}
	p := sort.Search(len(b.handleFence), func(p int) bool { return b.handleFence[p] > handle }) - 1
	if p < 0 {
		return false
	}
	fr, err := b.pool.Pin(b.rowOff[colHandles]/pager.PageSize + int64(p))
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
	rank, ok := b.pinWord(b.rowOff[colEntryRank]+4*(int64(p)*handlesPerPage+int64(i)), 4)
	if !ok {
		return false
	}
	row, ok := b.pinWord(b.rowOff[colRowHandles]+8*int64(rank), 8)
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

// baseReader bundles the per-query cursors, views and scratch buffers of one
// query. Readers are recycled through PagedBase.readers.
type baseReader struct {
	b     *PagedBase
	rows  [numRowSecs]*pager.View // a view of each row section by rank (pread mode)
	views []*pager.View           // every view the reader holds, the cursors' included
	src   []bitpack.Source        // one per cursor: the mapped postings, or a view of them each
	cur   []bitpack.Cursor        // one per query keyword, shortest list first
	lists []bitpack.List          // the query's lists, shortest first
	runs  []rankRun               // the ranks the rectangle may hold, ascending
	obj   dataset.Object
	pt    geom.Point
	ptBuf []byte
	doc   []dataset.Keyword
}

func (b *PagedBase) newReader() (*baseReader, error) {
	r := &baseReader{
		b:     b,
		src:   make([]bitpack.Source, b.k),
		cur:   make([]bitpack.Cursor, b.k),
		lists: make([]bitpack.List, 0, b.k),
		runs:  make([]rankRun, 0, 32),
	}
	if b.mapped() {
		for i := range r.src {
			r.src[i] = &b.mPostings
		}
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
	for i, row := range ckptRowSecs {
		if row.byRank {
			r.rows[i] = mk(b.rowOff[i], b.rowLen[i])
		}
	}
	for i := range r.src {
		// An empty posting section gives a nil view, which no cursor reads:
		// every block's payload is then empty too (parsePostings).
		r.src[i] = mk(b.wordsOff, b.wordsLen)
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

// handleAt returns the handle of the row at the given rank.
func (r *baseReader) handleAt(rank int64) int64 {
	if r.b.mapped() {
		return r.b.m.rowHandles[rank]
	}
	return r.rows[colRowHandles].I64(8 * rank)
}

// pointAt returns the point at the given rank (mapped subslice or scratch
// copy), or nil when the read failed.
func (r *baseReader) pointAt(rank int64) geom.Point {
	d := int64(r.b.dim)
	if r.b.mapped() {
		return r.b.m.points[rank*d : (rank+1)*d]
	}
	raw := r.rows[colPoints].Span(8*rank*d, 8*d, r.ptBuf)
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
	if m := &r.b.m; r.b.mapped() {
		return m.docWords[m.docStart[rank]:m.docStart[rank+1]]
	}
	dv, wv := r.rows[colDocStart], r.rows[colDocWords]
	lo, hi := dv.I64(8*rank), dv.I64(8*(rank+1))
	if hi <= lo || dv.Err() != nil {
		return nil
	}
	n := hi - lo
	if cap(r.doc) < int(n) {
		r.doc = make([]dataset.Keyword, n, n+16)
	}
	r.doc = r.doc[:n]
	for j := int64(0); j < n; j++ {
		r.doc[j] = wv.U32(4 * (lo + j))
	}
	return r.doc
}

// cover descends the stored tree with q, in preorder, and appends to
// r.runs the ranks q may hold: a covered node's or a crossing stored leaf's
// whole span, and a crossing inner node's pivot before its children's runs.
// A node found disjoint or covered is passed over with its subtree.
func (r *baseReader) cover(st *QueryStats, q *geom.Rect) {
	b := r.b
	d := b.dim
	for node, rank := 0, int32(0); node < len(b.spans); {
		box, span := b.tree[2*d*node:2*d*(node+1)], b.spans[node]
		st.NodesVisited++
		rel := q.RelateRect(box[:d], box[d:])
		switch rel {
		case geom.Covered:
			st.CoveredNodes++
		case geom.Crossing:
			st.CrossingNodes++
			if int(span) > b.cell {
				r.runs = addRun(r.runs, rank, rank+1, false)
				node, rank = node+1, rank+1
				continue
			}
		}
		if rel != geom.Disjoint {
			r.runs = addRun(r.runs, rank, rank+span, rel == geom.Covered)
		}
		node, rank = int(b.next[node]), rank+span
	}
}

// Query reports (handle, object) for every base entry in q whose document
// contains all k keywords, in rank order — the kd leaf order, not
// ascending handle. The reported object is the reader's
// scratch, valid only for the duration of the callback; in mapped mode its
// Point and Doc alias the mapping and remain valid until Close. Tombstone
// filtering is the caller's job (the dynamic layer owns the tombstone set):
// report returns false for an entry it drops, which does not count toward
// Reported or opts.Limit, and the query ends once Limit entries counted.
//
// NodesVisited, CoveredNodes and CrossingNodes count the stored tree's
// descent. Ops counts the candidates taken from the shortest list inside the
// runs the descent leaves — each one a rank the other lists were asked
// about — so ExecPolicy.NodeBudget bounds the intersection; ranks a longer
// list let the scan leap over, and ranks outside the runs, are never examined
// and never charged.
func (b *PagedBase) Query(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts, report func(handle int64, obj *dataset.Object) bool) (st QueryStats, err error) {
	if len(ws) != b.k {
		return st, fmt.Errorf("%w: query carries %d keywords but the base holds k=%d", ErrInvalidQuery, len(ws), b.k)
	}
	if err := dataset.ValidateKeywords(ws); err != nil {
		return st, fmt.Errorf("%w: %v", ErrInvalidQuery, err)
	}
	if err := validateRect(q, b.dim); err != nil {
		return st, err
	}
	if b.count == 0 {
		return st, nil
	}
	r, err := b.getReader()
	if err != nil {
		return st, err
	}
	defer b.putReader(r)
	// One cursor per keyword, shortest list first: it drives the leapfrog.
	// Any keyword absent from the vocabulary empties the result.
	lists := r.lists[:0]
	for _, w := range ws {
		l, ok := b.listFor(w)
		if !ok {
			return st, nil
		}
		lists = append(lists, l)
		for j := len(lists) - 1; j > 0 && lists[j].N < lists[j-1].N; j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	for i, l := range lists {
		r.cur[i].Reset(b.blocks[l.Block:l.Block+l.NumBlocks], int(l.N), r.src[i])
	}
	r.runs = r.runs[:0]
	r.cover(&st, q)

	// The candidate step. The lists are an index, not the truth: whatever the
	// tree boxes say of the run, a rank in all k lists is reported on its own
	// point, tested against the rectangle, and its own document, tested
	// against the keywords; only then is its handle read. Only such a rank
	// leaves the posting section, and only one inside the rectangle reads the
	// rest of its row. A failed read stops the query with its error.
	match := func(rank int32, _ bool) bool {
		p := r.pointAt(int64(rank))
		if p == nil {
			return true
		}
		if !q.ContainsPoint(p) {
			return false
		}
		r.obj = dataset.Object{Point: p, Doc: r.docAt(int64(rank))}
		if !dataset.DocHasAll(r.obj.Doc, ws) {
			return r.err() != nil
		}
		h := r.handleAt(int64(rank))
		if r.err() != nil {
			return true
		}
		if !report(h, &r.obj) {
			return false
		}
		st.Reported++
		if opts.Limit > 0 && st.Reported >= opts.Limit {
			st.Truncated = true
			return true
		}
		return false
	}
	// The policy's stop check, made early only: before each run, so a
	// rectangle of many runs and few candidates still polls its deadline,
	// and before a charged candidate is probed, so none past the budget is
	// examined.
	ps := newPolState(opts.Policy)
	var stopErr error
	early := func() bool {
		stopErr = ps.check(&st, st.Ops)
		return stopErr != nil
	}
	leapfrog(&st, r.runs, r.cur, 0, nil, 0, match, early, nil)
	if stopErr != nil {
		return st, stopErr
	}
	return st, r.err()
}

// entries gathers the rows back into entry order: the handles and dataset
// of the snapshot written (nil, nil when it is empty) — the
// checkpoint-writing path, which is allowed to touch the whole file. Each
// row section is read once, in file order, and gathered through a transient
// rank -> entry scratch. Open has checked every column's size, the handles,
// the document offsets and that the entry -> rank column is a permutation;
// what is left is that every row holds its entry's handle and that every
// document is canonical (dataset.FromColumns).
func (b *PagedBase) entries() ([]int64, *dataset.Dataset, error) {
	if b.count == 0 {
		return nil, nil, nil
	}
	// With the casts active open verified every page, so the mapping is read
	// in place; the handles are copied out of it.
	cols := b.m
	if b.mapped() {
		cols.handles = slices.Clone(cols.handles)
	} else {
		for i, row := range ckptRowSecs {
			raw, err := b.readSpan(b.rowOff[i], b.rowLen[i])
			if err != nil {
				return nil, nil, err
			}
			row.get(&cols, raw)
		}
	}
	n, dim := int(b.count), b.dim
	rankEntry := make([]int32, n)
	for e, r := range cols.entryRank {
		rankEntry[r] = int32(e)
	}
	points := make([]float64, n*dim)
	docStart := make([]int64, n+1)
	for r, e := range rankEntry {
		if h := cols.rowHandles[r]; h != cols.handles[e] {
			return nil, nil, errBase("row %d holds handle %d, its entry %d's is %d", r, h, e, cols.handles[e])
		}
		copy(points[int(e)*dim:], cols.points[r*dim:(r+1)*dim])
		docStart[e+1] = cols.docStart[r+1] - cols.docStart[r]
	}
	for e := 0; e < n; e++ {
		docStart[e+1] += docStart[e]
	}
	docWords := make([]dataset.Keyword, b.docTotal)
	for r, e := range rankEntry {
		copy(docWords[docStart[e]:docStart[e+1]], cols.docWords[cols.docStart[r]:cols.docStart[r+1]])
	}
	objs, err := dataset.FromColumns(dim, points, docStart, docWords)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", codec.ErrCorrupt, err)
	}
	return cols.handles, objs, nil
}
