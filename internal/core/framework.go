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
	"slices"
	"sync"

	"kwsc/internal/bits"
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
	ds    *dataset.Dataset
	k     int
	split spart.Splitter

	// Objects are numbered by rank: their position in leaf (DFS) order of the
	// tree, a node's pivots first, then its children's subtrees in child
	// order. Every node therefore owns one contiguous rank interval [lo, hi)
	// whose first entries are its pivots. Ranks are the only id space inside a
	// Framework — lists, bitmaps and coords are all addressed by them — and
	// ids translates back where an object leaves it: emit and document probes.
	ids    []int32   // rank -> dataset id
	coords []float64 // the coordinates queries compare, pdim per rank
	pdim   int

	flatLayout // the tree: node skeleton and payload arenas (flat.go)

	leafSize int
	space    SpaceBreakdown
	// rootDF[li] is the number of objects carrying the root's li-th large
	// keyword: the document frequencies EstimateWork's all-large case needs.
	rootDF []int32
}

// fnode is one tree node as the builder assembles it: scratch that pack
// turns into the flatLayout columns and BuildFramework drops on return. A kd
// build leaves cell nil: its nodes are related by their tight boxes.
type fnode struct {
	cell     spart.Cell
	children []int32
	lo, hi   int32 // rank interval of the active set
	npiv     int32 // the pivot set is ranks [lo, lo+npiv)
	nu       int64 // N_u = sum of |e.Doc| over the active set

	// Secondary structure T_u (internal nodes only):
	large   []dataset.Keyword // large keywords by tensor axis: L = len(large)
	tensors []*bits.Dense     // per child: L^k-bit non-emptiness array
	mat     []dataset.Keyword // small keywords with a materialized list
	lists   []matList         // materialized D_u^act(w), parallel to mat
}

// matList is one materialized list D_u^act(w) under construction, stored one
// of two ways (never both): ascending ranks, or — when denseList says the
// bitmap is no larger — a bitmap over the node's interval, bit r-lo set for
// every rank r in the list.
type matList struct {
	n     int32    // entries
	ranks []int32  // sparse representation
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
	// dataset's points; ORP-KW passes rank-space points). Points may have a
	// different dimensionality than the dataset (the lifting reduction of
	// Corollary 6 partitions on lifted (d+1)-dimensional coordinates while
	// documents stay with the original objects).
	Points []geom.Point
	// Objects restricts the index to a subset of object ids, distinct and in
	// any order (defaults to all); the slice is neither modified nor
	// retained. The dimension-reduction tree of Section 4 builds one
	// secondary framework per node on that node's active set.
	Objects []int32
	// LeafSize is the maximum number of objects in a leaf (default 8).
	LeafSize int
	// Parallelism caps the goroutines used to build the tree (see
	// BuildOpts): <= 0 selects GOMAXPROCS, 1 forces a sequential build.
	Parallelism int

	// gate shares one goroutine budget across nested builds (the
	// dimension-reduction tree builds one framework per node); when set it
	// overrides Parallelism.
	gate *parGate
	// ownCoords keeps the last pdim coordinates of the dataset's own points
	// as the coordinates queries compare, Points only steering the splits:
	// ORP-KW, and the d = 2 secondaries of Theorem 2's index, split in rank
	// space and answer in the original one (DESIGN.md, substitution 2).
	ownCoords bool
}

// BuildFramework runs Step 2 of the framework over the dataset.
func BuildFramework(ds *dataset.Dataset, cfg FrameworkConfig) (*Framework, error) {
	if cfg.K < 2 {
		return nil, fmt.Errorf("core: the framework requires k >= 2, got %d", cfg.K)
	}
	if cfg.Splitter == nil {
		return nil, fmt.Errorf("core: nil splitter")
	}
	leaf := cfg.LeafSize
	if leaf <= 0 {
		leaf = 8
	}
	f := &Framework{
		ds:       ds,
		k:        cfg.K,
		split:    cfg.Splitter,
		leafSize: leaf,
	}
	// The splitters break coordinate ties by object id and hand children
	// their objects in the order they came, so the tree is a function of the
	// object set only when every build starts from ascending ids. Callers may
	// pass Objects in any order (the dimension-reduction tree hands each
	// secondary an x-sorted active set). A kd build sorts its axis lists, ties
	// by id, and its leaves, so the same holds there.
	objs := cfg.Objects
	if objs == nil {
		objs = iota32(ds.Len())
	} else if !slices.IsSorted(objs) {
		objs = slices.Clone(objs)
		slices.Sort(objs)
	}
	gate := cfg.gate
	if gate == nil {
		gate = newParGate(cfg.Parallelism)
	}
	// The splitters index points and weights by object id, so the build runs
	// on local ids, positions in objs, and carries its own columns under them:
	// points, weights, and each document read once as dense keyword ids,
	// numbered in the order the root first meets them (the order that numbers
	// its tensor axes). Every column is sized to the build's own objects and
	// keywords, never to the dataset or the keyword values.
	n := len(objs)
	b := &builder{f: f, gate: gate, pts: cfg.Points, weight: make([]int32, n), docStart: make([]int32, 1, n+1), seq: make([]int32, n)}
	local := objs // already 0..n-1 when objs is every object
	if cfg.Objects != nil {
		local = iota32(n)
	}
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
	b.docs = make([]int32, 0, int(ds.N())*n/max(ds.Len(), 1)) // n mean documents
	dense := make(map[dataset.Keyword]int32)
	var cnt []int32 // objects per dense id: the root's counts
	for i, id := range objs {
		b.weight[i] = ds.DocLen(id)
		for _, w := range ds.Doc(id) {
			d, ok := dense[w]
			if !ok {
				d = int32(len(b.words))
				dense[w] = d
				b.words = append(b.words, w)
				cnt = append(cnt, 0)
			}
			b.docs = append(b.docs, d)
			cnt[d]++
		}
		b.docStart = append(b.docStart, int32(len(b.docs)))
	}
	if kd, ok := f.split.(*spart.KD); ok {
		b.kd = kd
		b.sorted = spart.Presort(n, kd.Dim, func(id int32, a int) float64 { return b.pts[id][a] })
		local = b.sorted.List(0, 0, n)
	}
	// The root's incoming keyword set is every keyword present among the
	// objects: each is vacuously large at all (zero) proper ancestors.
	var root spart.Cell
	if b.kd == nil {
		root = f.split.RootCell(b.pts, local)
	}
	b.sc = getKwScratch(len(b.words))
	b.build(root, local, iota32(len(b.words)), cnt, 0, 0)
	kwScratchPool.Put(b.sc)
	switch {
	case n > 0:
		f.pdim = len(b.pts[0])
	case b.kd != nil:
		f.pdim = b.kd.Dim
	}
	f.ids = b.seq
	f.coords = make([]float64, n*f.pdim)
	for r, id := range f.ids {
		p := b.pts[id]
		if cfg.ownCoords {
			p = ds.Point(objs[id])[ds.Dim()-f.pdim:]
		}
		copy(f.coords[r*f.pdim:(r+1)*f.pdim], p)
		f.ids[r] = objs[id]
	}
	f.pack(b.nodes, b.kd != nil)
	if b.kd != nil && !f.deriveBoxes() {
		return nil, fmt.Errorf("core: a NaN partitioning coordinate has no place in a box")
	}
	f.accountSpace()
	return f, nil
}

func iota32(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// builder accumulates the subtree it is responsible for in its own nodes
// slice (child indexes are local to that slice). Parallel construction gives
// each spawned subtree its own builder, sharing the build's read-only columns
// but with its own keyword scratch, and grafts the finished slice into the
// parent's. Builders never share mutable state — except seq, the leaf order
// under construction, of which every subtree writes only its own rank
// interval.
type builder struct {
	f        *Framework
	gate     *parGate
	pts      []geom.Point      // partitioning coordinates by local id
	weight   []int32           // |e.Doc| by local id: the verbose-set multiplicity
	docStart []int32           // local id i's document is docs[docStart[i]:docStart[i+1]]
	docs     []int32           // documents as dense keyword ids
	words    []dataset.Keyword // dense keyword id -> keyword
	seq      []int32           // rank -> local id
	sc       *kwScratch
	nodes    []fnode

	// A kd build keeps every node's objects sorted on each axis (kdSplit):
	// the node over ranks [lo, hi) is positions [lo, hi) of sorted.
	kd     *spart.KD
	sorted *spart.Presorted
}

func (b *builder) doc(id int32) []int32 { return b.docs[b.docStart[id]:b.docStart[id+1]] }

// keywords translates dense keyword ids back.
func (b *builder) keywords(ids []int32) []dataset.Keyword {
	out := make([]dataset.Keyword, len(ids))
	for i, d := range ids {
		out[i] = b.words[d]
	}
	return out
}

// kwScratch is one goroutine's keyword scratch: slot has an entry per dense
// keyword id of the build (or more), -1 except while one node fills tensors
// or lists through it; cnt and axes are reused node to node. The pool hands
// it from finished builders to new ones, so the many small builds of the
// dimension-reduction tree allocate it about once per goroutine.
type kwScratch struct {
	slot, cnt, axes []int32
}

var kwScratchPool = sync.Pool{New: func() any { return new(kwScratch) }}

// getKwScratch returns scratch for a build of d dense keyword ids.
func getKwScratch(d int) *kwScratch {
	sc := kwScratchPool.Get().(*kwScratch)
	for len(sc.slot) < d {
		sc.slot = append(sc.slot, -1)
	}
	return sc
}

// childResult is one child subtree of an internal node under construction:
// its non-emptiness tensor plus either a root index into the parent
// builder's nodes (inline build, sub == nil) or a completed sub-builder
// whose nodes await grafting.
type childResult struct {
	tensor *bits.Dense
	root   int32
	sub    *builder
}

// build creates the subtree for objs (local ids), whose ranks are
// [lo, lo+len(objs)), and returns its node index within b.nodes; incoming
// holds the dense ids of the node's incoming keywords and cnt how many of
// objs carry each, read before anything else uses the scratch it may live in.
// On return b.seq holds the subtree's leaf order over that interval.
func (b *builder) build(cell spart.Cell, objs, incoming, cnt []int32, depth int, lo int32) int32 {
	f := b.f
	idx := int32(len(b.nodes))
	b.nodes = append(b.nodes, fnode{cell: cell, lo: lo, hi: lo + int32(len(objs))})
	var nu int64
	for _, id := range objs {
		nu += int64(b.weight[id])
	}
	b.nodes[idx].nu = nu
	if len(objs) <= f.leafSize {
		b.leaf(idx, objs)
		return idx
	}

	// Classify the incoming keywords as large or small at this node
	// (Section 3.2): w is large iff |D_u^act(w)| >= N_u^{1-1/k}.
	threshold := math.Pow(float64(nu), 1-1/float64(f.k))
	// D_u^act(w) is materialized for every small incoming keyword that occurs
	// here (w was large at all proper ancestors by the inductive invariant).
	// Only the sizes are known yet: the lists hold ranks, and the subtree's
	// ranks are settled once the children are built.
	var large, mat []int32
	var lists []matList
	for i, w := range incoming {
		switch c := cnt[i]; {
		case float64(c) >= threshold:
			large = append(large, w)
			if depth == 0 {
				f.rootDF = append(f.rootDF, c)
			}
		case c > 0:
			mat = append(mat, w)
			lists = append(lists, matList{n: c})
		}
	}

	// Leaf order: the pivots take the first ranks of the interval, each child
	// the next len(group) — so every child's interval is known before any
	// subtree is built, and a parallel build numbers exactly as a sequential
	// one.
	split := b.split
	if b.kd != nil {
		split = b.kdSplit
	}
	cells, groups, npiv, ok := split(cell, objs, lo, nu, depth)
	if !ok {
		// No geometric progress possible: finish as a leaf.
		b.leaf(idx, objs)
		return idx
	}
	b.nodes[idx].npiv = npiv
	b.nodes[idx].large = b.keywords(large)

	// Per child: the k-dimensional non-emptiness bit array (bit at the
	// sorted tuple (i1 < ... < ik) of large-keyword indexes is set iff some
	// object in the child's active set carries all k keywords) and the child
	// subtree. Both depend only on the child's objects plus this node's
	// read-only large list, so heavy children are handed to other goroutines
	// when the gate has budget; the rest build inline. The results slice is
	// sized up front because spawned goroutines hold pointers into it.
	tsize := tensorSize(len(large), f.k)
	nz := 0
	for _, g := range groups {
		if len(g) > 0 {
			nz++
		}
	}
	results := make([]childResult, nz)
	var wg sync.WaitGroup
	ri := 0
	clo := lo + npiv
	for c, g := range groups {
		if len(g) == 0 {
			continue
		}
		r := &results[ri]
		ri++
		var childCell spart.Cell
		if cells != nil {
			childCell = cells[c]
		}
		childLo := clo
		clo += int32(len(g))
		if len(g) >= parallelCutoff && b.gate.tryAcquire() {
			sub := *b
			sub.nodes = nil
			r.sub = &sub
			wg.Add(1)
			go func(g []int32) {
				defer wg.Done()
				defer b.gate.release()
				sub.sc = getKwScratch(len(b.words))
				t, cnt := sub.scanChild(g, large, tsize)
				r.tensor = t
				r.root = sub.build(childCell, g, large, cnt, depth+1, childLo)
				kwScratchPool.Put(sub.sc)
			}(g)
			continue
		}
		t, cnt := b.scanChild(g, large, tsize)
		r.tensor = t
		r.root = b.build(childCell, g, large, cnt, depth+1, childLo)
	}
	wg.Wait()

	// Graft spawned subtrees, preserving child order; only node placement
	// within b.nodes differs from a sequential build, and pack renumbers.
	childIdx := make([]int32, 0, nz)
	tensors := make([]*bits.Dense, 0, nz)
	for i := range results {
		r := &results[i]
		if r.sub != nil {
			off := int32(len(b.nodes))
			for _, n := range r.sub.nodes {
				for ci := range n.children {
					n.children[ci] += off
				}
				b.nodes = append(b.nodes, n)
			}
			childIdx = append(childIdx, off+r.root)
		} else {
			childIdx = append(childIdx, r.root)
		}
		tensors = append(tensors, r.tensor)
	}
	n := &b.nodes[idx]
	n.children = childIdx
	n.tensors = tensors

	// Materialize the lists from the finished leaf order: one pass over the
	// interval appends ranks in ascending order, so nothing is sorted.
	span := int(n.hi - lo)
	for i := range lists {
		if l := &lists[i]; denseList(int(l.n), span) {
			l.words = make([]uint64, bitmapWords(span))
		} else {
			l.ranks = make([]int32, 0, l.n)
		}
	}
	slot := b.sc.slot
	for i, w := range mat {
		slot[w] = int32(i)
	}
	for r := lo; r < n.hi; r++ {
		for _, w := range b.doc(b.seq[r]) {
			li := slot[w]
			if li < 0 {
				continue
			}
			if l := &lists[li]; l.words != nil {
				l.words[(r-lo)>>6] |= 1 << (uint32(r-lo) & 63)
			} else {
				l.ranks = append(l.ranks, r)
			}
		}
	}
	for _, w := range mat {
		slot[w] = -1
	}
	n.mat, n.lists = b.keywords(mat), lists
	return idx
}

// split runs the splitter on objs and groups them by child, writing the
// pivots to b.seq from rank lo; the groups are cut from one buffer, each to
// its exact size.
func (b *builder) split(cell spart.Cell, objs []int32, lo int32, _ int64, depth int) ([]spart.Cell, [][]int32, int32, bool) {
	cells, assign, ok := b.f.split.Split(cell, objs, b.pts, b.weight, depth)
	if !ok {
		return nil, nil, 0, false
	}
	groups := make([][]int32, len(cells))
	sizes := make([]int, len(cells))
	for _, a := range assign {
		if a != spart.PivotChild {
			sizes[a]++
		}
	}
	buf := make([]int32, len(objs))
	for c, m := range sizes {
		groups[c], buf = buf[:0:m], buf[m:]
	}
	npiv := int32(0)
	for i, id := range objs {
		if a := assign[i]; a == spart.PivotChild {
			b.seq[lo+npiv] = id
			npiv++
		} else {
			groups[a] = append(groups[a], id)
		}
	}
	return cells, groups, npiv, true
}

// kdSplit is split over the presorted lists of the node over ranks
// [lo, lo+len(objs)): the split axis's list names the pivot and the children,
// and after the partition every list is in child order. Each child's objects
// are its axis-0 list. It returns no cells: a kd node is related by its tight
// box, which the finished tree derives (deriveBoxes).
func (b *builder) kdSplit(_ spart.Cell, objs []int32, lo int32, nu int64, depth int) ([]spart.Cell, [][]int32, int32, bool) {
	l, h := int(lo), int(lo)+len(objs)
	axis, from, to, ok := b.kd.SplitSorted(b.sorted, l, h, b.weight, nu, depth)
	if !ok {
		return nil, nil, 0, false
	}
	b.sorted.Partition(axis, l, h, from, to)
	npiv := to - from
	l0 := b.sorted.List(0, l, h)
	copy(b.seq[lo:], l0[:npiv])
	return nil, [][]int32{l0[npiv : npiv+from], l0[npiv+from:]}, int32(npiv), true
}

// leaf finishes node idx as a leaf: its whole active set is its pivot set,
// ascending.
func (b *builder) leaf(idx int32, objs []int32) {
	n := &b.nodes[idx]
	n.npiv = int32(len(objs))
	copy(b.seq[n.lo:], objs)
	sortInt32s(b.seq[n.lo:n.hi])
}

// scanChild makes the one pass over a child's documents that the parent's
// large keywords (dense ids by tensor axis) need: it marks the child's
// non-emptiness bit array, and it counts each large keyword among the child's
// objects — the counts the child classifies its incoming keywords by. The
// counts live in b's scratch until its next scan.
func (b *builder) scanChild(g, large []int32, tsize int64) (*bits.Dense, []int32) {
	t := bits.NewDense(int(tsize))
	cnt := slices.Grow(b.sc.cnt[:0], len(large))[:len(large)]
	clear(cnt)
	b.sc.cnt = cnt
	if len(large) == 0 {
		return t, cnt
	}
	slot, axes := b.sc.slot, b.sc.axes
	for i, w := range large {
		slot[w] = int32(i)
	}
	for _, id := range g {
		axes = axes[:0]
		for _, w := range b.doc(id) {
			if a := slot[w]; a >= 0 {
				axes = append(axes, a)
				cnt[a]++
			}
		}
		if len(axes) >= b.f.k {
			sortInt32s(axes)
			markCombinations(t, axes, b.f.k, len(large))
		}
	}
	for _, w := range large {
		slot[w] = -1
	}
	b.sc.axes = axes
	return t, cnt
}

// sortInt32s is an allocation-free insertion sort for the short slices the
// build and query hot paths produce (query keyword tuples, per-document
// large-keyword lists).
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
// k-combination of the sorted large-keyword indexes in list.
func markCombinations(t *bits.Dense, list []int32, k, L int) {
	var rec func(start, depth int, lin int64)
	rec = func(start, depth int, lin int64) {
		if depth == k {
			t.Set(int(lin))
			return
		}
		for i := start; i <= len(list)-(k-depth); i++ {
			rec(i+1, depth+1, lin*int64(L)+int64(list[i]))
		}
	}
	rec(0, 0, 0)
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

// Dataset returns the underlying dataset.
func (f *Framework) Dataset() *dataset.Dataset { return f.ds }

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
