// Package core implements the paper's primary contribution: the four-step
// index-transformation framework of Section 3, which converts a
// space-partitioning geometry index into one that additionally handles
// keyword predicates with query time O(N^{1-1/k} (1 + OUT^{1/k})); the
// dimension-reduction technique of Section 4; and, on top of those, the
// indexes for every problem of Section 1.1 (ORP-KW, RR-KW, L∞NN-KW, LC-KW,
// SP-KW, SRP-KW, L2NN-KW) plus the k-SI view of Section 1.2.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/spart"
)

// Framework is the keyword-transformed space-partitioning index of
// Section 3.2 (Step 2 of the framework): a tree built over the verbose set
// (realized as objects weighted by |e.Doc|), where each node u carries
//
//   - its active set implicitly (the objects in its subtree),
//   - its pivot set D_u^pvt (objects on child-cell boundaries),
//   - the secondary structure T_u: a hash table of the keywords that are
//     large at u (|D_u^act(w)| >= N_u^{1-1/k}) and, per child v, a
//     k-dimensional bit array recording whether the intersection of the
//     children's active keyword sets is empty,
//   - the materialized lists D_u^act(w) for keywords that are small at u
//     but large at all proper ancestors.
type Framework struct {
	k     int
	split spart.Splitter

	// Objects are numbered by rank: their position in leaf (DFS) order of the
	// tree, a node's pivots first, then its children's subtrees in child
	// order. Every node therefore owns one contiguous rank interval [lo, hi)
	// whose first entries are its pivots. Ranks are the only id space inside a
	// Framework — lists, bitmaps and rows are all addressed by them — and ids
	// translates back where an object leaves it, at emit.
	ids  []int32         // rank -> dataset id
	rows dataset.Dataset // by rank: the coordinates queries compare, pdim a row, and the document
	pdim int

	flatLayout // the tree: node skeleton and payload arenas (flat.go)

	space SpaceBreakdown
}

// fnode is one tree node as the builder assembles it: scratch that pack
// turns into the flatLayout columns and BuildFramework drops on return. It
// holds the geometry only; the few nodes that carry keyword structures point
// to them, and cells, which a kd build has none of, sit beside the nodes
// (builder.cells).
type fnode struct {
	children []int32 // cut from the builder's slab (builder.kids)
	lo, hi   int32   // rank interval of the active set
	npiv     int32   // the pivot set is ranks [lo, lo+npiv)
	nu       int64   // N_u = sum of |e.Doc| over the active set
	kw       *kwNode // nil unless hang gave the node a large or a small keyword
}

// kwNode is the secondary structure T_u of an internal node.
type kwNode struct {
	large   []dataset.Keyword // large keywords by tensor axis: L = len(large)
	tensors []uint64          // per child in order: the L^k-bit non-emptiness array, ceil(L^k/64) words
	mat     []dataset.Keyword // small keywords with a materialized list
	lists   []matList         // materialized D_u^act(w), parallel to mat
}

// matList is one materialized list D_u^act(w) under construction, stored one
// of two ways (never both): ascending ranks, or — when denseList says the
// bitmap is no larger — a bitmap over the node's interval, bit r-lo set for
// every rank r in the list.
type matList struct {
	n     int32    // entries
	ranks []int32  // sparse representation: the keyword's run of its posting
	words []uint64 // dense representation, ceil((hi-lo)/64) words
}

// denseList is the one representation rule, for every index family: a list
// of n ranks inside an interval of span ranks becomes a bitmap
// exactly when the bitmap's span bits are no more than the 32n bits of the
// rank array it replaces. A dense list thus has ceil(span/64) <= n/2 + 1
// words, so ANDing a stop node's bitmaps word by word stays inside the
// O(N_u^{1-1/k}) a scan of the list would have cost.
func denseList(n, span int) bool { return 32*n >= span }

// bitmapWords is the length of a bitmap over an interval of span ranks.
func bitmapWords(span int) int { return (span + 63) / 64 }

// SpaceBreakdown audits the index footprint analytically, in the paper's
// units (words of >= log2 N bits, plus raw bits for the bit arrays), so the
// space claims of Table 1 are measurable independent of Go allocator
// overheads.
type SpaceBreakdown struct {
	NodeWords  int64 // tree skeleton: cells, child pointers, counters
	PivotWords int64 // pivot set entries
	LargeWords int64 // large-keyword hash tables
	MatWords   int64 // materialized small-keyword lists
	TensorBits int64 // k-dimensional non-emptiness bit arrays
	AuxWords   int64 // problem-specific extras (rank tables, directories, coordinate arrays)
}

// TotalWords converts the breakdown to words, charging the bit arrays at
// wordBits bits per word (pass 64 for the machine word; the paper's model
// uses >= log2 N).
func (s SpaceBreakdown) TotalWords(wordBits int) int64 {
	if wordBits <= 0 {
		wordBits = 64
	}
	return s.NodeWords + s.PivotWords + s.LargeWords + s.MatWords +
		s.AuxWords + (s.TensorBits+int64(wordBits)-1)/int64(wordBits)
}

// FrameworkConfig controls construction.
type FrameworkConfig struct {
	// K is the number of keywords every query will carry (k >= 2).
	K int
	// Splitter is the Step-1 space-partitioning policy.
	Splitter spart.Splitter
	// Points are the partitioning coordinates per object (defaults to the
	// dataset's points). Points may have a different dimensionality than the
	// dataset (the lifting reduction of Corollary 6 partitions on lifted
	// (d+1)-dimensional coordinates while documents stay with the original
	// objects). A spart.KD splitter's Dim must be theirs.
	Points []geom.Point
	// Objects restricts the index to a subset of object ids, distinct and in
	// any order (defaults to all); the slice is neither modified nor
	// retained. The dimension-reduction tree of Section 4 builds one
	// secondary framework per node on that node's active set.
	Objects []int32

	// gate is the build's goroutine budget, newParGate(p) for a parallelism
	// of p; nil builds sequentially. Nested builds share one (the
	// dimension-reduction tree builds one framework per node).
	gate *parGate
	// rankSpace makes a kd build split in rank space (Section 3.4) over the
	// last Splitter.Dim coordinates of the dataset's own points, Points unset.
	// The presort orders them as rank space does, ties by id, so no two
	// entries tie and every split is the median entry alone
	// (spart.KD.SplitRanked); the ranks themselves are never materialised,
	// and the same coordinates are the ones queries compare. ORP-KW, and the
	// d = 2 secondaries of Theorem 2's index, build this way (DESIGN.md,
	// substitution 2).
	rankSpace bool
}

// BuildFramework runs the framework over the dataset in two passes. The
// first builds the space-partitioning tree (Step 1) and with it the leaf
// order; the second hangs the keyword structures of Step 2 on the finished
// tree, reading each keyword's posting in that order.
func BuildFramework(ds *dataset.Dataset, cfg FrameworkConfig) (*Framework, error) {
	if cfg.K < 2 {
		return nil, fmt.Errorf("core: the framework requires k >= 2, got %d", cfg.K)
	}
	b, objs, err := treePass(ds, cfg)
	if err != nil {
		return nil, err
	}
	f := b.f
	// The root's incoming keyword set is every keyword present among the
	// objects: each is vacuously large at all (zero) proper ancestors.
	roots, docStart, docWords := b.postings(ds, objs)
	b.hang(0, roots)
	ids, rows := b.gatherRows(ds, objs, docStart, docWords)
	f.ids, f.rows = ids, *rows
	f.pack(b.nodes, b.cells)
	if err := f.derive(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return f, nil
}

// treePass is the front end of a framework build, which the checkpoint
// writer runs as well: it sets up the builder, its Framework and its columns
// over the objects cfg names and runs the tree pass (Step 1). It returns the
// builder with the tree in b.nodes and the leaf order, by local id, in b.seq,
// and objs, the build's objects ascending, which maps a local id to its
// dataset id.
func treePass(ds *dataset.Dataset, cfg FrameworkConfig) (b *builder, objs []int32, err error) {
	if cfg.Splitter == nil {
		return nil, nil, fmt.Errorf("core: nil splitter")
	}
	f := &Framework{
		k:     cfg.K,
		split: cfg.Splitter,
	}
	// The splitters break coordinate ties by object id and hand children
	// their objects in the order they came, so the tree is a function of the
	// object set only when every build starts from ascending ids. Callers may
	// pass Objects in any order (the dimension-reduction tree hands each
	// secondary an x-sorted active set). A kd build sorts its axis lists, ties
	// by id, and its leaves, so the same holds there.
	objs = cfg.Objects
	if objs == nil {
		objs = iota32(ds.Len())
	} else if !slices.IsSorted(objs) {
		objs = slices.Clone(objs)
		slices.Sort(objs)
	}
	// The splitters index points and weights by object id, so the build runs
	// on local ids, positions in objs, and carries its own columns under them.
	// Every column is sized to the build's own objects and keywords, never to
	// the dataset or the keyword values.
	n := len(objs)
	b = &builder{f: f, gate: cfg.gate, weight: make([]int32, n), seq: make([]int32, n), rankSpace: cfg.rankSpace}
	for i, id := range objs {
		b.weight[i] = ds.DocLen(id)
	}
	var local []int32 // the build's objects as local ids, in the order the tree pass takes them
	var root spart.Cell
	if kd, ok := f.split.(*spart.KD); ok {
		b.kd, f.pdim = kd, kd.Dim
		if b.col, err = kdColumn(ds, objs, cfg, kd.Dim); err != nil {
			return nil, nil, err
		}
		local = b.presort()
	} else {
		b.pts = cfg.Points
		if cfg.Objects != nil || cfg.Points == nil {
			b.pts = make([]geom.Point, n)
			for i, id := range objs {
				if cfg.Points != nil {
					b.pts[i] = cfg.Points[id]
				} else {
					b.pts[i] = ds.Point(id)
				}
			}
		}
		if n > 0 {
			f.pdim = len(b.pts[0])
		}
		local = objs // already 0..n-1 when objs is every object
		if cfg.Objects != nil {
			local = iota32(n)
		}
		root = f.split.RootCell(b.pts, local)
	}
	b.arena(n)
	var nu int64
	for _, w := range b.weight {
		nu += int64(w)
	}
	b.geometry(root, local, nu, 0, 0)
	return b, objs, nil
}

// kdColumn returns a kd build's coordinates by local id, dim a row: the
// dataset's own column when the build takes every object and all of its
// coordinates, a gathered copy otherwise.
func kdColumn(ds *dataset.Dataset, objs []int32, cfg FrameworkConfig, dim int) ([]float64, error) {
	d := ds.Dim()
	if cfg.Points != nil {
		if len(cfg.Points[0]) != dim {
			return nil, fmt.Errorf("core: a %d-dimensional kd splitter over %d-dimensional points", dim, len(cfg.Points[0]))
		}
		col := make([]float64, len(objs)*dim)
		for i, id := range objs {
			copy(col[i*dim:(i+1)*dim], cfg.Points[id])
		}
		return col, nil
	}
	if dim > d || dim < d && !cfg.rankSpace {
		return nil, fmt.Errorf("core: a %d-dimensional kd splitter over %d-dimensional points", dim, d)
	}
	if cfg.Objects == nil && dim == d {
		points, _, _ := ds.Columns()
		return points, nil
	}
	col := make([]float64, len(objs)*dim)
	for i, id := range objs {
		copy(col[i*dim:(i+1)*dim], ds.Point(id)[d-dim:])
	}
	return col, nil
}

// gatherRows returns the rank columns: ids, the leaf order turned in place
// from local ids to dataset ids, and the rows, rank r the coordinates queries
// compare (pdim of them) and the document of object ids[r], which postings
// laid out by rank in docStart and docWords. Rank ranges are gathered on as
// many goroutines as the gate lends.
func (b *builder) gatherRows(ds *dataset.Dataset, objs []int32, docStart []int64, docWords []dataset.Keyword) (ids []int32, rows *dataset.Dataset) {
	n, pdim := len(b.seq), b.f.pdim
	ids, coords := b.seq, make([]float64, n*pdim)
	b.gate.spread(n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			id := ids[r]
			if b.col != nil {
				copy(coords[r*pdim:(r+1)*pdim], b.col[int(id)*pdim:])
			} else {
				copy(coords[r*pdim:(r+1)*pdim], b.pts[id])
			}
			ids[r] = objs[id]
		}
	})
	return ids, dataset.Reordered(pdim, coords, docStart, docWords, ds.W())
}

func iota32(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// builder accumulates the subtree it is responsible for in its own nodes
// slice (child indexes are local to that slice). The tree pass gives each
// spawned subtree its own builder and arena, sharing the build's read-only
// columns, and grafts the finished slice into the parent's; the keyword pass
// gives each a copy with its own kwArena over the one finished nodes slice,
// of which it writes only its subtree's nodes (and its parent's tensor for
// it). Builders share no other mutable state — except seq, the leaf order
// under construction, of which every subtree writes only its own rank
// interval.
type builder struct {
	f      *Framework
	gate   *parGate
	pts    []geom.Point // partitioning coordinates by local id, other splitters than kd
	weight []int32      // |e.Doc| by local id: the verbose-set multiplicity
	seq    []int32      // rank -> local id

	// The tree pass's arena (arena): the nodes, their cells by node unless
	// the build is kd, and the slab children are cut from.
	nodes []fnode
	cells []spart.Cell
	kids  slab[int32]

	// A kd build keeps every node's objects sorted on each axis (kdSplit):
	// the node over ranks [lo, hi) is positions [lo, hi) of sorted. col holds
	// its coordinates by local id, pdim a row; rankSpace splits them as ranks
	// (FrameworkConfig.rankSpace).
	kd        *spart.KD
	sorted    *spart.Presorted
	col       []float64
	rankSpace bool

	// The keyword pass's columns (postings), read-only, and this builder's
	// share of its output and scratch.
	words []dataset.Keyword // dense keyword id -> keyword
	post  []int32           // every dense id's posting, ascending ranks
	kwa   kwArena
}

// run is one keyword's active set at a node: a stretch of its posting,
// post[off:off+n], the ranks of the node's interval that carry dense id w.
type run struct{ w, off, n int32 }

// kwArena is one goroutine's share of the keyword pass: the slabs its nodes'
// keyword structures are cut from, and the scratch markTensor reuses node to
// node. None of it outlives the build.
type kwArena struct {
	nodes slab[kwNode]
	keys  slab[dataset.Keyword]
	lists slab[matList]
	runs  slab[run]    // the children's incoming runs
	words slab[uint64] // tensors and dense lists
	mask  []uint64
	cur   []run
	axes  []int32
}

// slab hands out pieces of larger allocations, for structures that live as
// long as the build: a spent slab is replaced by one at least as large as all
// it has handed out, so n pieces cost O(log n) allocations. Pieces start
// zeroed and are never reused.
type slab[T any] struct {
	free []T
	used int
}

// minSlab is the fewest entries a slab allocates at once.
const minSlab = 64

func (s *slab[T]) cut(n int) []T {
	if len(s.free) < n {
		s.free = make([]T, max(n, s.used, minSlab))
	}
	c := s.free[:n:n]
	s.free, s.used = s.free[n:], s.used+n
	return c
}

// leafSize is the most objects a leaf of the framework's tree holds.
const leafSize = 8

// arena gives b room for the tree over n objects: its nodes, a kd build's
// without cells, and a slab for their children. A median split leaves
// leafSize/2 to leafSize objects in a leaf, so a tree has about
// 8n/(3*leafSize) nodes, half of them leaves (0.315n at leafSize 8 over
// paged-cold's corpus), and one child fewer than nodes: room for fewer
// regrows the nodes, a copy of them whole, and cuts a further slab.
func (b *builder) arena(n int) {
	m := 8*n/(3*leafSize) + 1
	b.nodes, b.kids = make([]fnode, 0, m), slab[int32]{free: make([]int32, m)}
	if b.kd == nil {
		b.cells = make([]spart.Cell, 0, m)
	}
}

// geometry builds the tree over objs (local ids), whose ranks are
// [lo, lo+len(objs)) and whose weights sum to nu, and returns its root's
// index within b.nodes. On return b.seq holds the subtree's leaf order over
// that interval.
func (b *builder) geometry(cell spart.Cell, objs []int32, nu int64, depth int, lo int32) int32 {
	idx := int32(len(b.nodes))
	b.nodes = append(b.nodes, fnode{lo: lo, hi: lo + int32(len(objs)), nu: nu})
	if b.kd == nil {
		b.cells = append(b.cells, cell)
	}
	if len(objs) <= leafSize {
		b.leaf(idx, objs)
		return idx
	}
	// Leaf order: the pivots take the first ranks of the interval, each child
	// the next len(group) — so every child's interval is known before any
	// subtree is built, and a parallel build numbers exactly as a sequential
	// one. A kd split's two groups stay on this frame.
	var cells []spart.Cell
	var groups [][]int32
	var nus []int64
	var npiv int32
	var ok bool
	var kdGroups [2][]int32
	var kdNus [2]int64
	if b.kd != nil {
		kdGroups, kdNus, npiv, ok = b.kdSplit(lo, len(objs), nu, depth)
		groups, nus = kdGroups[:], kdNus[:]
	} else {
		cells, groups, nus, npiv, ok = b.split(cell, objs, lo, depth)
	}
	if !ok {
		// No geometric progress possible: finish as a leaf.
		b.leaf(idx, objs)
		return idx
	}
	b.nodes[idx].npiv = npiv

	// Heavy children are handed to other goroutines when the gate has
	// budget; the rest build inline.
	nz := 0
	for _, g := range groups {
		if len(g) > 0 {
			nz++
		}
	}
	children := b.kids.cut(nz)
	var subs []*builder // by child: the builder of a spawned subtree
	var wg *sync.WaitGroup
	ci, clo := 0, lo+npiv
	for c, g := range groups {
		if len(g) == 0 {
			continue
		}
		var childCell spart.Cell
		if cells != nil {
			childCell = cells[c]
		}
		childLo := clo
		clo += int32(len(g))
		if len(g) >= parallelCutoff && b.gate.tryAcquire() {
			if subs == nil {
				subs, wg = make([]*builder, nz), new(sync.WaitGroup)
			}
			sub := *b
			sub.arena(len(g))
			subs[ci] = &sub
			wg.Add(1)
			go func(wg *sync.WaitGroup, g []int32, nu int64) {
				defer wg.Done()
				defer b.gate.release()
				sub.geometry(childCell, g, nu, depth+1, childLo)
			}(wg, g, nus[c])
		} else {
			children[ci] = b.geometry(childCell, g, nus[c], depth+1, childLo)
		}
		ci++
	}
	if wg != nil {
		wg.Wait()
	}

	// Graft spawned subtrees, each rooted at its builder's node 0; only node
	// placement within b.nodes differs from a sequential build, and pack
	// renumbers.
	for ci, sub := range subs {
		if sub == nil {
			continue
		}
		off := int32(len(b.nodes))
		for _, n := range sub.nodes {
			for i := range n.children {
				n.children[i] += off
			}
			b.nodes = append(b.nodes, n)
		}
		b.cells = append(b.cells, sub.cells...)
		children[ci] = off
	}
	b.nodes[idx].children = children
	return idx
}

// split runs the splitter on objs and groups them by child, writing the
// pivots to b.seq from rank lo; the groups are cut from one buffer, each to
// its exact size, and nus holds their weights.
func (b *builder) split(cell spart.Cell, objs []int32, lo int32, depth int) (cells []spart.Cell, groups [][]int32, nus []int64, npiv int32, ok bool) {
	cells, assign, ok := b.f.split.Split(cell, objs, b.pts, b.weight, depth)
	if !ok {
		return nil, nil, nil, 0, false
	}
	groups = make([][]int32, len(cells))
	sums := make([]int64, 2*len(cells)) // per child: objects, then weight
	sizes, nus := sums[:len(cells)], sums[len(cells):]
	for i, a := range assign {
		if a != spart.PivotChild {
			sizes[a]++
			nus[a] += int64(b.weight[objs[i]])
		}
	}
	buf := make([]int32, len(objs))
	for c, m := range sizes {
		groups[c], buf = buf[:0:m], buf[m:]
	}
	for i, id := range objs {
		if a := assign[i]; a == spart.PivotChild {
			b.seq[lo+npiv] = id
			npiv++
		} else {
			groups[a] = append(groups[a], id)
		}
	}
	return cells, groups, nus, npiv, true
}

// kdSplit is split over the presorted lists of the node of size objects over
// ranks [lo, lo+size): the split axis's list names the pivot and the
// children, and after the partition every list is in child order. Each
// child's objects are its axis-0 list; their weights follow from the left
// side's, which the median scan sums. It returns no cells: a kd node is
// related by its tight box, which the finished tree derives (derive).
func (b *builder) kdSplit(lo int32, size int, nu int64, depth int) ([2][]int32, [2]int64, int32, bool) {
	l, h := int(lo), int(lo)+size
	var axis, from, to int
	var left int64
	if b.rankSpace {
		axis, from, left = b.kd.SplitRanked(b.sorted, l, h, b.weight, nu, depth)
		to = from + 1
	} else {
		var ok bool
		if axis, from, to, left, ok = b.kd.SplitSorted(b.sorted, l, h, b.weight, nu, depth); !ok {
			return [2][]int32{}, [2]int64{}, 0, false
		}
	}
	b.sorted.Partition(axis, l, h, from, to)
	npiv := to - from
	l0 := b.sorted.List(0, l, h)
	copy(b.seq[lo:], l0[:npiv])
	right := nu - left
	for _, id := range l0[:npiv] {
		right -= int64(b.weight[id])
	}
	return [2][]int32{l0[npiv : npiv+from], l0[npiv+from:]}, [2]int64{left, right}, int32(npiv), true
}

// presort sorts a kd build's objects, 0..len(b.weight)-1, on every axis of
// b.col — the axes on as many goroutines as the gate lends from
// parallelCutoff objects — and returns them in axis 0's order: the objects
// geometry takes at the root.
func (b *builder) presort() []int32 {
	n := len(b.weight)
	var each func(int, func(int))
	if b.gate != nil && n >= parallelCutoff {
		each = b.gate.each
	}
	b.sorted = spart.Presort(n, b.kd.Dim, b.col, each)
	return b.sorted.List(0, 0, n)
}

// leaf finishes node idx as a leaf: its whole active set is its pivot set,
// ascending.
func (b *builder) leaf(idx int32, objs []int32) {
	n := &b.nodes[idx]
	n.npiv = int32(len(objs))
	copy(b.seq[n.lo:], objs)
	sortInt32s(b.seq[n.lo:n.hi])
}

// postings numbers the keywords as dense ids in the order the objects,
// ascending, first meet them (the order that numbers the root's tensor axes),
// and writes each dense id's posting, its ranks ascending, to b.post. Every
// node owns one rank interval, so a keyword's active set at any node is one
// run of its posting, and the keyword pass reads nothing else. It returns the
// root's runs: every keyword's whole posting.
//
// The pass that writes the postings walks the documents by rank, and writes
// them out as it goes: it returns, beside the root's runs, the documents by
// rank, rank r's at docWords[docStart[r]:docStart[r+1]] (gatherRows' rows).
//
// Each pass runs on as many goroutines as the gate lends: ranges of objects
// number their own keywords, writing their documents as part-local ids, and
// the part tables merge in order; the later parts' documents are renumbered
// in place; and ranges of ranks count their postings and words, then write
// them from cursors the counts place. The documents, by object, are dropped
// on return.
func (b *builder) postings(ds *dataset.Dataset, objs []int32) (roots []run, docStart []int64, docWords []dataset.Keyword) {
	n := len(objs)
	start := make([]int32, n+1) // by local id: where its document starts in docs
	for i, w := range b.weight {
		start[i+1] = start[i] + w
	}
	docs := make([]int32, start[n])
	parts := b.gate.parts(n)
	tabs := make([]kwTable, parts)
	cnts := make([][]int32, parts) // per part: objects per part-local id
	b.gate.each(parts, func(p int) {
		t, cnt := &tabs[p], cnts[p]
		for i := p * n / parts; i < (p+1)*n/parts; i++ {
			out := docs[start[i]:]
			for j, w := range ds.Doc(objs[i]) {
				d := t.add(w)
				if int(d) == len(cnt) {
					cnt = append(cnt, 0)
				}
				cnt[d]++
				out[j] = d
			}
		}
		cnts[p] = cnt
	})
	tab, cnt := &tabs[0], cnts[0]
	for p := 1; p < parts; p++ {
		remap := cnts[p] // turned in place from counts to the merged ids
		for d, w := range tabs[p].words {
			g := tab.add(w)
			if int(g) == len(cnt) {
				cnt = append(cnt, 0)
			}
			cnt[g] += remap[d]
			remap[d] = g
		}
	}
	b.words = tab.words
	if parts > 1 {
		b.gate.each(parts-1, func(p int) {
			remap, lo, hi := cnts[p+1], start[(p+1)*n/parts], start[(p+2)*n/parts]
			for i, d := range docs[lo:hi] {
				docs[int(lo)+i] = remap[d]
			}
		})
	}

	roots = make([]run, len(cnt))
	var off int32
	for d, c := range cnt {
		roots[d] = run{w: int32(d), off: off, n: c}
		off += c
	}
	b.post = make([]int32, off)
	docStart, docWords = make([]int64, n+1), make([]dataset.Keyword, off)
	// Per range of ranks: its count of each dense id, then its cursor, and its
	// first word. One range's counts are the merged counts.
	at, first := cnts, make([]int64, parts+1)
	if parts > 1 {
		b.gate.each(parts, func(p int) {
			c := make([]int32, len(cnt))
			for _, id := range b.seq[p*n/parts : (p+1)*n/parts] {
				for _, d := range docs[start[id]:start[id+1]] {
					c[d]++
				}
				first[p+1] += int64(start[id+1] - start[id])
			}
			at[p] = c
		})
	}
	for p := range parts {
		first[p+1] += first[p]
	}
	for d := range roots {
		o := roots[d].off
		for _, c := range at {
			c[d], o = o, o+c[d]
		}
	}
	b.gate.each(parts, func(p int) {
		cur, lo, w := at[p], p*n/parts, first[p]
		for i, id := range b.seq[lo : (p+1)*n/parts] {
			for _, d := range docs[start[id]:start[id+1]] {
				b.post[cur[d]] = int32(lo + i)
				cur[d]++
				docWords[w] = b.words[d]
				w++
			}
			docStart[lo+i+1] = w
		}
	})
	return roots, docStart, docWords
}

// hang runs Step 2 at node idx and below, given the node's incoming keywords
// as runs, each the keyword's active set at the node. By its run's length a
// keyword is large or small (Section 3.2); a small one's list is its run, or
// the run as a bitmap. Each large run is cut at the children's interval
// boundaries into their incoming runs, from which each child's non-emptiness
// tensor is marked before the child hangs its own structures. A node with no
// large keyword passes none down, so the walk ends there: nothing below it
// carries a keyword structure.
func (b *builder) hang(idx int32, runs []run) {
	f := b.f
	n := &b.nodes[idx]
	if len(n.children) == 0 {
		return
	}
	// Section 3.2: w is large iff |D_u^act(w)| >= N_u^{1-1/k}. D_u^act(w) is
	// materialized for every small incoming keyword that occurs here (w was
	// large at all proper ancestors by the inductive invariant).
	threshold := math.Pow(float64(n.nu), 1-1/float64(f.k))
	L, M := 0, 0
	for _, r := range runs {
		if float64(r.n) >= threshold {
			L++
		} else if r.n > 0 {
			M++
		}
	}
	if L == 0 && M == 0 {
		return
	}
	a := &b.kwa
	kw := &a.nodes.cut(1)[0]
	n.kw = kw
	kw.large, kw.mat, kw.lists = a.keys.cut(L), a.keys.cut(M), a.lists.cut(M)
	// Per child, in order: the k-dimensional non-emptiness bit array (bit at
	// the sorted tuple (i1 < ... < ik) of large-keyword indexes is set iff
	// some object in the child's active set carries all k keywords), stride
	// words, and the child's incoming runs, L of them by tensor axis.
	var stride int
	var in []run
	if L > 0 {
		stride = int((tensorSize(L, f.k) + 63) / 64)
		kw.tensors, in = a.words.cut(len(n.children)*stride), a.runs.cut(len(n.children)*L)
	}
	L, M = 0, 0
	for _, r := range runs {
		switch {
		case float64(r.n) >= threshold:
			kw.large[L] = b.words[r.w]
			b.cut(n, r, in[L:], len(kw.large))
			L++
		case r.n > 0:
			kw.mat[M] = b.words[r.w]
			kw.lists[M] = b.list(r, n.lo, n.hi)
			M++
		}
	}
	if L == 0 {
		return
	}

	// A child's tensor and structures depend only on its interval and its
	// incoming runs, so heavy children are handed to other goroutines when
	// the gate has budget.
	var wg *sync.WaitGroup
	for ci, c := range n.children {
		t, cin := kw.tensors[ci*stride:(ci+1)*stride], in[ci*L:(ci+1)*L]
		if int(b.nodes[c].hi-b.nodes[c].lo) >= parallelCutoff && b.gate.tryAcquire() {
			if wg == nil {
				wg = new(sync.WaitGroup)
			}
			sub := *b
			sub.kwa = kwArena{}
			wg.Add(1)
			go func(sub *builder, wg *sync.WaitGroup, c int32, t []uint64, cin []run) {
				defer wg.Done()
				defer b.gate.release()
				sub.child(c, t, cin)
			}(&sub, wg, c, t, cin)
			continue
		}
		b.child(c, t, cin)
	}
	if wg != nil {
		wg.Wait()
	}
}

// child marks node c's non-emptiness tensor t in its parent from its
// incoming runs, unless fewer than k of them leave no tuple to mark, and
// hangs c's structures.
func (b *builder) child(c int32, t []uint64, runs []run) {
	if len(runs) >= b.f.k {
		b.markTensor(t, runs, b.nodes[c].lo, b.nodes[c].hi)
	}
	b.hang(c, runs)
}

// cut splits run r of node n at its children's interval boundaries, which
// are contiguous and ascending after the pivots, by binary search: child ci's
// share goes to out[ci*L].
func (b *builder) cut(n *fnode, r run, out []run, L int) {
	end := r.off + r.n
	p := r.off + searchRank(b.post[r.off:end], n.lo+n.npiv)
	last := len(n.children) - 1
	for ci, c := range n.children {
		q := end
		if ci < last {
			q = p + searchRank(b.post[p:end], b.nodes[c].hi)
		}
		out[ci*L] = run{w: r.w, off: p, n: q - p}
		p = q
	}
}

// searchRank returns the position of the first rank in ascending ranks that
// is at least r.
func searchRank(ranks []int32, r int32) int32 {
	i, _ := slices.BinarySearch(ranks, r)
	return int32(i)
}

// list is the materialized list of a small keyword's run r at the node over
// ranks [lo, hi): the run itself, or its bitmap when denseList says so.
func (b *builder) list(r run, lo, hi int32) matList {
	ranks := b.post[r.off : r.off+r.n : r.off+r.n]
	if !denseList(int(r.n), int(hi-lo)) {
		return matList{n: r.n, ranks: ranks}
	}
	words := b.kwa.words.cut(bitmapWords(int(hi - lo)))
	for _, x := range ranks {
		words[(x-lo)>>6] |= 1 << (uint32(x-lo) & 63)
	}
	return matList{n: r.n, words: words}
}

// maskWords bounds the scratch markTensor collects a rank's axes in: a
// child's interval goes through it in windows of maskWords/W ranks, where W
// is the words of one rank's axis bits.
const maskWords = 4096

// markTensor sets the tensor bits t of the child over ranks [lo, hi) from its
// incoming runs, one per tensor axis. A window's ranks first collect a bit
// for each axis whose run holds them; then every rank with k or more bits
// yields its axes in ascending order, and each k-subset of them is a tuple
// to mark.
func (b *builder) markTensor(t []uint64, runs []run, lo, hi int32) {
	a, k, L := &b.kwa, b.f.k, len(runs)
	W := (L + 63) / 64
	win := int32(max(maskWords/W, 1))
	if need := int(min(hi-lo, win)) * W; len(a.mask) < need {
		a.mask = make([]uint64, need)
	}
	cur, axes := append(a.cur[:0], runs...), a.axes[:0]
	for wlo := lo; wlo < hi; wlo += win {
		whi := min(wlo+win, hi)
		m, set := a.mask[:int(whi-wlo)*W], 0
		for ax := range cur {
			c, col, bit := &cur[ax], ax>>6, uint64(1)<<(ax&63)
			for ; c.n > 0 && b.post[c.off] < whi; c.off, c.n = c.off+1, c.n-1 {
				m[int(b.post[c.off]-wlo)*W+col] |= bit
				set++
			}
		}
		if set < k {
			clear(m)
			continue
		}
		for i := 0; i < len(m); i += W {
			ones := 0
			for _, x := range m[i : i+W] {
				ones += bits.OnesCount64(x)
			}
			if ones < k {
				continue
			}
			axes = axes[:0]
			for j, x := range m[i : i+W] {
				for ; x != 0; x &= x - 1 {
					axes = append(axes, int32(j<<6|bits.TrailingZeros64(x)))
				}
			}
			markCombinations(t, axes, k, L)
		}
		clear(m)
	}
	a.cur, a.axes = cur, axes
}

// sortInt32s is an allocation-free insertion sort for the short slices the
// build and query hot paths produce (query keyword tuples, leaf objects).
func sortInt32s(s []int32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// tensorSize returns L^k, saturating safely (L^k <= N_u by the large-keyword
// bound, so overflow means a logic error upstream).
func tensorSize(L, k int) int64 {
	s := int64(1)
	for i := 0; i < k; i++ {
		s *= int64(L)
		if s > 1<<40 {
			panic("core: non-emptiness tensor exceeds sanity bound; large-keyword invariant violated")
		}
	}
	return s
}

// markCombinations sets the tensor bit of every strictly-increasing
// k-combination of the sorted large-keyword indexes in list. The tuples run
// in lexicographic order: an odometer steps through the (k-1)-prefixes, and
// a straight loop runs the last entry. pos[j] is the list position of a
// prefix's j-th entry and lin[j] the linear index of its first j entries, so
// a step recomputes only the entries after the one that moved. A tuple to
// mark needs L >= k and tensorSize caps L^k at 2^40, so k <= 11.
func markCombinations(t []uint64, list []int32, k, L int) {
	var pos [10]int
	var lin [11]int64
	last := len(list) - k // prefix entry j's last position is last+j
	for j, next := 0, 0; ; {
		for ; j < k-1; j, next = j+1, next+1 {
			pos[j] = next
			lin[j+1] = lin[j]*int64(L) + int64(list[next])
		}
		base := lin[k-1] * int64(L)
		for _, w := range list[next:] {
			i := base + int64(w)
			t[i>>6] |= 1 << (i & 63)
		}
		for j = k - 2; j >= 0 && pos[j] == last+j; j-- {
		}
		if j < 0 {
			return
		}
		next = pos[j] + 1
	}
}

// tensorIndex computes the linear index of the sorted large-index tuple.
func tensorIndex(sorted []int32, L int) int64 {
	var lin int64
	for _, v := range sorted {
		lin = lin*int64(L) + int64(v)
	}
	return lin
}

// K returns the keyword arity the index was built for.
func (f *Framework) K() int { return f.k }

// NumNodes returns the number of tree nodes.
func (f *Framework) NumNodes() int { return len(f.nu) }

// PointDim returns the dimensionality of the coordinates queries compare (the
// lifted dimension for SRP-KW, the dataset's for ORP-KW); query validation
// checks constraints against it.
func (f *Framework) PointDim() int { return f.pdim }

// Space returns the analytic space audit.
func (f *Framework) Space() SpaceBreakdown { return f.space }

// accountSpace audits the arenas. Two int32s pack per word; a list handle
// counts as two words. AuxWords accrue outside the tree, after this runs.
func (f *Framework) accountSpace() {
	var s SpaceBreakdown
	nn := int64(len(f.nu))
	// Skeleton: the cell — a kd node's box, 2·pdim floats, or else an
	// interface of 2 words — nu, tensorOff, tensorStride, plus the eight int32
	// columns (l, childFirst, childCount, rankLo, rankSpan, pivotCount,
	// largeStart, matStart) at half a word each.
	cellWords := 2 * nn
	if f.boxes != nil {
		cellWords = int64(len(f.boxes))
	}
	s.NodeWords = cellWords + 3*nn + 4*nn
	// The rank -> id column is the pivot sets themselves, concatenated in leaf
	// order; a node says which stretch is its own with rankLo and pivotCount.
	s.PivotWords = (int64(len(f.ids)) + 1) / 2
	s.LargeWords = int64(len(f.largeKeys)) // key + idx = two int32s
	s.MatWords = (int64(len(f.matRanks))+1)/2 + int64(len(f.matBits)) + 2*int64(len(f.matLists)) + int64(len(f.matKeys))/2
	s.TensorBits = f.tensorArena.SpaceBits()
	f.space = s
}

// MaxPivots returns the largest pivot set of any internal node — the
// quantity the general-position machinery (Steps 2 and 4) keeps O(1).
func (f *Framework) MaxPivots() int {
	m := 0
	for u, cc := range f.childCount {
		if cc > 0 {
			m = max(m, int(f.pivotCount[u]))
		}
	}
	return m
}

// Height returns the tree height.
func (f *Framework) Height() int {
	var rec func(u int32) int
	rec = func(u int32) int {
		h := 0
		for c, end := f.childFirst[u], f.childFirst[u]+f.childCount[u]; c < end; c++ {
			h = max(h, rec(c)+1)
		}
		return h
	}
	return rec(0)
}
