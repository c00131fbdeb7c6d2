package core

import (
	"fmt"
	"io"
	"math"
	mbits "math/bits"
	"os"

	"kwsc/internal/bits"
	"kwsc/internal/codec"
	"kwsc/internal/dataset"
	"kwsc/internal/pager"
	"kwsc/internal/spart"
)

// This file is the flat image of a built index: the KWCP2 container an
// ORP-KW or LC-KW index saves as and is served from again without a rebuild.
// Its sections are flatColumns (flat.go). An open maps the file, verifies
// every page checksum and reads the columns back — on a little-endian host
// with the file mapped the big ones (rows, lists, tensors) alias the
// mapping, and the page cache is the only copy — then trusts none of them:
// every structural invariant the query path relies on is checked
// (checkImage). The image holds only the independent columns: what they
// determine, the kd boxes included, is derived again (derive). Its rows are
// the framework's, by rank, as a checkpoint stores them: the coordinates
// queries compare and the documents, and the rank column names each rank's
// id. An opened image holds no other copy of its objects.
// Only the rectangle splitter spart.KD round-trips: Willard2D's cells are
// convex polygons built during the ham-sandwich recursion and have no
// fixed-width serialized form.

// flatSplitKD is the splitter kind a flat image carries: spart.KD over
// pdim-dimensional points.
const flatSplitKD = 1

// FlatOptions tunes how a saved index is opened.
type FlatOptions struct {
	// NoMmap forces pread-backed access: every column is decoded into RAM
	// at open and the mapping is never created. The default maps the file
	// and aliases columns zero-copy where alignment and endianness allow.
	NoMmap bool
}

// FlatHandle owns the open file's pager reference. The index returned
// alongside it may alias the mapping, so the handle must stay open for the
// index's lifetime and be closed exactly once when the index is discarded.
type FlatHandle struct {
	f *pager.File
}

// Close releases the file reference (unmapping on the last reference, and
// completing a deferred pager.Retire if one is pending).
func (h *FlatHandle) Close() error {
	if h == nil || h.f == nil {
		return nil
	}
	f := h.f
	h.f = nil
	return f.Unref()
}

// Path returns the file the handle serves from.
func (h *FlatHandle) Path() string { return h.f.Path() }

// Mapped reports whether the file is memory-mapped.
func (h *FlatHandle) Mapped() bool { return h.f.Mapped() }

// FlatIndex is an index family with a flat image: ORP-KW, and LC-KW built
// over a spart.KD splitter.
type FlatIndex interface {
	*ORPKW | *SPKW
	Framework() *Framework
}

// flatKind is the container kind of I's images.
func flatKind[I FlatIndex]() uint32 {
	if _, ok := any(*new(I)).(*ORPKW); ok {
		return codec.PagedKindFlatORPKW
	}
	return codec.PagedKindFlatSPKW
}

// SaveFlat writes ix's flat image to path atomically (tmp + rename +
// directory sync).
func SaveFlat[I FlatIndex](path string, ix I) error {
	return pager.WriteAtomic(path, func(f *os.File) error { return writeFlat(f, ix) }, nil)
}

func writeFlat[I FlatIndex](w io.Writer, ix I) error {
	f := ix.Framework()
	if _, ok := f.split.(*spart.KD); !ok {
		return fmt.Errorf("core: splitter %T has no serializable cells (KD only)", f.split)
	}
	m := &flatImage{
		Framework: *f,
		meta:      []uint64{flatSplitKD, uint64(f.pdim), uint64(len(f.nu)), codec.FlatImageVersion},
		lists:     make([]int32, 0, 2*len(f.matLists)),
		tensors:   f.tensorArena.Raw(),
	}
	m.points, m.docStart, m.docWords = f.rows.Columns()
	for _, l := range f.matLists {
		m.lists = append(m.lists, l.N, l.Rep)
	}
	secs := make([]codec.Section, len(flatColumns))
	for i, col := range flatColumns {
		secs[i] = codec.Section{ID: col.id, Data: col.put(m)}
	}
	meta := codec.PagedMeta{Kind: flatKind[I](), K: uint32(f.k), Dim: uint32(f.pdim), Count: uint64(len(f.ids))}
	return codec.WriteContainer(w, meta.Encode(), secs)
}

// OpenFlat opens a file written by SaveFlat for the same family and returns
// a query-ready index plus the handle that owns the file reference. Build
// options tune observability only (WithoutObs); nothing is rebuilt. On
// failure the file reference is released.
func OpenFlat[I FlatIndex](path string, o FlatOptions, opts ...BuildOption) (I, *FlatHandle, error) {
	var popts []pager.OpenOption
	if o.NoMmap {
		popts = append(popts, pager.WithoutMmap())
	}
	f, err := pager.Open(path, popts...)
	if err != nil {
		return nil, nil, err
	}
	ix, err := openFlat[I](f, resolveOpts(opts))
	if err != nil {
		f.Unref()
		return nil, nil, err
	}
	return ix, &FlatHandle{f: f}, nil
}

func openFlat[I FlatIndex](f *pager.File, o BuildOpts) (I, error) {
	c, err := codec.ParseContainer(f, f.Size())
	if err != nil {
		return nil, err
	}
	// Every page verifies before a column may alias the mapping.
	if err := c.VerifyAllPages(f); err != nil {
		return nil, err
	}
	meta := codec.ParsePagedMeta(c.Meta)
	if meta.Kind != flatKind[I]() {
		return nil, errImage("container kind %d is not a %T image", meta.Kind, *new(I))
	}
	m := new(flatImage)
	for _, col := range flatColumns {
		if off, n, ok := c.Section(col.id); ok && col.skeleton {
			f.AdviseWillNeed(off, n)
		}
		if err := col.read(m, c, f); err != nil {
			return nil, err
		}
	}
	if err := m.unpack(meta); err != nil {
		return nil, err
	}
	fw := &m.Framework
	if err := fw.checkImage(); err != nil {
		return nil, err
	}
	if flatKind[I]() == codec.PagedKindFlatSPKW {
		return any(&SPKW{fw: fw, fam: o.famFor(famLCKW)}).(I), nil
	}
	return any(newORPKW(fw, o)).(I), nil
}

// errImage refuses a flat image as codec.ErrCorrupt: a file whose pages all
// verify but whose columns describe no index this build wrote.
func errImage(format string, args ...any) error {
	return fmt.Errorf("%w: flat image: %s", codec.ErrCorrupt, fmt.Sprintf(format, args...))
}

// unpack checks the image's meta and turns the sections that hold a column
// in another form into the framework's: the rows, the list handles and the
// tensor arena. The rows alias the sections they are read from, which is
// safe over a read-only mapping: dataset.FromColumns validates without
// writing.
func (m *flatImage) unpack(meta codec.PagedMeta) error {
	if meta.Dim < 1 || meta.Dim > 64 || meta.K < 2 || meta.K > 64 || meta.Count < 1 || meta.Count > 1<<31 {
		return errImage("dimension %d, arity %d, object count %d", meta.Dim, meta.K, meta.Count)
	}
	fm := m.meta
	if len(fm) != 4 {
		return errImage("meta section has %d values, want 4", len(fm))
	}
	if fm[3] != codec.FlatImageVersion {
		return errImage("version %d is not readable; this build reads version %d: rebuild the image", fm[3], codec.FlatImageVersion)
	}
	if fm[0] != flatSplitKD {
		return errImage("splitter kind %d unknown", fm[0])
	}
	if fm[1] != uint64(meta.Dim) || fm[2] < 1 || fm[2] > 1<<31 {
		return errImage("meta pdim %d of dimension %d / nodes %d out of range", fm[1], meta.Dim, fm[2])
	}
	if uint64(len(m.nu)) != fm[2] {
		return errImage("meta claims %d nodes, weights carry %d", fm[2], len(m.nu))
	}
	if uint64(len(m.docStart)) != meta.Count+1 {
		return errImage("%d document offsets for %d objects", len(m.docStart), meta.Count)
	}
	rows, err := dataset.FromColumns(int(meta.Dim), m.points, m.docStart, m.docWords)
	if err != nil {
		return errImage("rows: %v", err)
	}
	if len(m.lists)%2 != 0 {
		return errImage("list handle column of %d values is not {n, rep} pairs", len(m.lists))
	}
	m.matLists = make([]FlatList, len(m.lists)/2)
	for i := range m.matLists {
		m.matLists[i] = FlatList{N: m.lists[2*i], Rep: m.lists[2*i+1]}
	}
	m.lists = nil // the opened framework keeps m alive; the pairs are matLists now
	pdim := int(meta.Dim)
	m.rows, m.k, m.split, m.pdim = *rows, int(meta.K), &spart.KD{Dim: pdim}, pdim
	m.tensorArena = bits.ArenaFromWords(m.tensors)
	return nil
}

// checkImage validates the independent columns of a framework read from an
// image, derives the rest (derive) and checks every list against its node's
// derived interval. The columns are untrusted (they come off disk, and may
// alias a read-only mapping): every structural invariant the query path
// relies on is checked up front, so a malformed image yields an error here
// rather than a panic mid-query. Checksums are the caller's concern; this
// validation is about shape, not integrity.
func (f *Framework) checkImage() error {
	nn := len(f.nu)
	if nn < 1 || nn > math.MaxInt32 {
		return errImage("%d nodes", nn)
	}
	n := f.rows.Len()
	if len(f.childCount) != nn || len(f.pivotCount) != nn {
		return errImage("skeleton columns disagree on node count")
	}
	if len(f.ids) != n {
		return errImage("%d ranks for %d objects", len(f.ids), n)
	}
	if err := checkStarts("large-keyword", f.largeStart, nn, len(f.largeKeys)); err != nil {
		return err
	}
	if err := checkStarts("materialized-list", f.matStart, nn, len(f.matKeys)); err != nil {
		return err
	}
	if len(f.largeIdx) != len(f.largeKeys) {
		return errImage("%d large indexes for %d large keys", len(f.largeIdx), len(f.largeKeys))
	}
	if len(f.matLists) != len(f.matKeys) {
		return errImage("%d list handles for %d materialized keys", len(f.matLists), len(f.matKeys))
	}
	if len(f.matRanks) > math.MaxInt32 || len(f.matBits) > math.MaxInt32 {
		return errImage("list arenas of %d ranks and %d words", len(f.matRanks), len(f.matBits))
	}

	// BFS layout: dequeue order gives each node's children the next
	// contiguous id block, so the blocks must run from 1 to the node count,
	// each starting past the node that owns it. Every node but the root is
	// then the child of exactly one node before it: the "tree" is a tree,
	// which the recursive traversals rely on to terminate.
	next := 1
	for u := 0; u < nn; u++ {
		if f.nu[u] < 0 {
			return errImage("node %d has negative weight", u)
		}
		if f.pivotCount[u] < 0 {
			return errImage("node %d has a negative pivot count", u)
		}
		cc := int(f.childCount[u])
		if cc < 0 || u >= next {
			return errImage("node %d breaks the BFS child layout", u)
		}
		next += cc
		if next > nn {
			return errImage("node %d claims children past the node count", u)
		}
	}
	if next != nn {
		return errImage("%d nodes, the BFS layout covers %d", nn, next)
	}

	// Rank space. The column must be a permutation of the ids [0, n): emit
	// translates through it, and a caller's answer names each object once.
	seen := bits.NewDense(n)
	for r, id := range f.ids {
		if id < 0 || int(id) >= n || seen.Get(int(id)) {
			return errImage("rank %d maps to id %d: the rank column is not a permutation of [0, %d)", r, id, n)
		}
		seen.Set(int(id))
	}
	for i, l := range f.matLists {
		if l.N < 0 || l.Rep != ListRanks && l.Rep != ListBitmap {
			return errImage("list %d: %d entries in representation %d", i, l.N, l.Rep)
		}
	}
	// The boxes are derived, never read: whatever the sections say, a box
	// bounds exactly the coordinates of its node's ranks, so no box can call a
	// point covered that lies outside the query.
	if err := f.derive(); err != nil {
		return errImage("%v", err)
	}

	for u := 0; u < nn; u++ {
		ls, le := f.largeStart[u], f.largeStart[u+1]
		for i := ls; i < le; i++ {
			if i > ls && f.largeKeys[i] <= f.largeKeys[i-1] {
				return errImage("node %d large keywords not strictly increasing", u)
			}
			if f.largeIdx[i] < 0 || f.largeIdx[i] >= f.l[u] {
				return errImage("node %d large index %d outside [0, %d)", u, f.largeIdx[i], f.l[u])
			}
		}
		ms, me := f.matStart[u], f.matStart[u+1]
		for i := ms; i < me; i++ {
			if i > ms && f.matKeys[i] <= f.matKeys[i-1] {
				return errImage("node %d materialized keywords not strictly increasing", u)
			}
			var err error
			if l := f.matLists[i]; l.Rep == ListRanks {
				err = checkRanks(f.matRanks[l.Start:l.Start+l.N], f.rankLo[u], f.rankLo[u]+f.rankSpan[u])
			} else {
				err = checkBitmap(f.matBits[l.Start:int(l.Start)+bitmapWords(int(f.rankSpan[u]))], l.N, int(f.rankSpan[u]))
			}
			if err != nil {
				return errImage("node %d list %d: %v", u, i, err)
			}
		}
	}
	return nil
}

// checkRanks validates a sparse list at a node whose interval is [lo, hi):
// strictly ascending — the stop-node intersection gallops and leapfrogs on
// that order — and all of the interval, since a candidate is tested against
// the node's bitmaps at bit rank-lo.
func checkRanks(ranks []int32, lo, hi int32) error {
	prev := lo - 1
	for _, r := range ranks {
		if r <= prev || r >= hi {
			return fmt.Errorf("rank %d after %d is not ascending inside [%d, %d)", r, prev, lo, hi)
		}
		prev = r
	}
	return nil
}

// checkBitmap validates the words of a bitmap list of n ranks over an
// interval of span ranks: no bit set past the interval, and n bits set.
func checkBitmap(words []uint64, n int32, span int) error {
	if tail := span & 63; tail != 0 && words[len(words)-1]>>tail != 0 {
		return fmt.Errorf("bitmap has bits set past its %d-rank interval", span)
	}
	pop := 0
	for _, w := range words {
		pop += mbits.OnesCount64(w)
	}
	if pop != int(n) {
		return fmt.Errorf("bitmap holds %d ranks, handle claims %d", pop, n)
	}
	return nil
}

// checkStarts validates one prefix-offset column: nn+1 entries running
// monotonically from 0 to the payload length.
func checkStarts(what string, starts []int32, nn, payload int) error {
	if len(starts) != nn+1 {
		return errImage("%s offsets have %d entries for %d nodes", what, len(starts), nn)
	}
	if starts[0] != 0 || int(starts[nn]) != payload {
		return errImage("%s offsets span [%d, %d], payload is %d", what, starts[0], starts[nn], payload)
	}
	for i := 0; i < nn; i++ {
		if starts[i] > starts[i+1] {
			return errImage("%s offsets decrease at node %d", what, i)
		}
	}
	return nil
}

// tensorWordsChecked is tensorSize in word units with the panic turned into
// an ok flag — flat images are untrusted, so an absurd L must not crash.
func tensorWordsChecked(L int64, k int) (int64, bool) {
	if L < 0 {
		return 0, false
	}
	s := int64(1)
	for i := 0; i < k; i++ {
		s *= L
		if s > 1<<40 {
			return 0, false
		}
	}
	return (s + 63) / 64, true
}
