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
	coords []float64 // partitioning coordinates (rank space or original), pdim per rank
	pdim   int

	flatLayout // the tree: node skeleton and payload arenas (flat.go)

	leafSize int
	space    SpaceBreakdown
	// rootDF[li] is the number of objects carrying the root's li-th large
	// keyword: the document frequencies EstimateWork's all-large case needs.
	rootDF []int32
}

// fnode is one tree node as the builder assembles it: scratch that pack
// turns into the flatLayout columns and BuildFramework drops on return.
type fnode struct {
	cell     spart.Cell
	children []int32
	lo, hi   int32 // rank interval of the active set
	npiv     int32 // the pivot set is ranks [lo, lo+npiv)
	nu       int64 // N_u = sum of |e.Doc| over the active set

	// Secondary structure T_u (internal nodes only):
	large   map[dataset.Keyword]int32 // large keyword -> index in [0, L)
	l       int32                     // L = number of large keywords
	tensors []*bits.Dense             // per child: L^k-bit non-emptiness array
	mat     map[dataset.Keyword]int32 // small keyword -> index into lists
	lists   []matList                 // materialized D_u^act(w)
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
	AuxWords   int64 // problem-specific extras (rank tables, coordinate arrays)
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
}

// BuildFramework runs Step 2 of the framework over the dataset.
func BuildFramework(ds *dataset.Dataset, cfg FrameworkConfig) (*Framework, error) {
	if cfg.K < 2 {
		return nil, fmt.Errorf("core: the framework requires k >= 2, got %d", cfg.K)
	}
	if cfg.Splitter == nil {
		return nil, fmt.Errorf("core: nil splitter")
	}
	pts := cfg.Points
	if pts == nil {
		pts = make([]geom.Point, ds.Len())
		for i := range pts {
			pts[i] = ds.Point(int32(i))
		}
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
	// secondary an x-sorted active set).
	objs := cfg.Objects
	if objs == nil {
		objs = make([]int32, ds.Len())
		for i := range objs {
			objs[i] = int32(i)
		}
	} else if !slices.IsSorted(objs) {
		objs = slices.Clone(objs)
		slices.Sort(objs)
	}
	// The root's incoming keyword set is every keyword present among the
	// objects: each is vacuously large at all (zero) proper ancestors.
	seen := make(map[dataset.Keyword]struct{})
	incoming := make([]dataset.Keyword, 0, 64)
	for _, id := range objs {
		for _, w := range ds.Doc(id) {
			if _, ok := seen[w]; !ok {
				seen[w] = struct{}{}
				incoming = append(incoming, w)
			}
		}
	}
	gate := cfg.gate
	if gate == nil {
		gate = newParGate(cfg.Parallelism)
	}
	// The splitters index points and weights by dataset id, so the build runs
	// on dataset ids and writes the leaf order into seq as it goes; weight is
	// scratch of the build alone, filled for this framework's objects only.
	b := &builder{
		f:      f,
		pts:    pts,
		weight: make([]int32, ds.Len()),
		seq:    make([]int32, len(objs)),
		cnt:    make(map[dataset.Keyword]int64, len(incoming)),
		gate:   gate,
	}
	for _, id := range objs {
		b.weight[id] = ds.DocLen(id)
	}
	root := f.split.RootCell(pts, objs)
	b.build(root, objs, incoming, 0, 0)
	f.ids = b.seq
	if len(pts) > 0 {
		f.pdim = len(pts[0])
	}
	f.coords = make([]float64, len(objs)*f.pdim)
	for r, id := range f.ids {
		copy(f.coords[r*f.pdim:(r+1)*f.pdim], pts[id])
	}
	f.pack(b.nodes)
	f.accountSpace()
	return f, nil
}

// builder accumulates the subtree it is responsible for in its own nodes
// slice (child indexes are local to that slice) and carries the reusable
// scratch map used to count keyword occurrences per node; keys present in
// the map are exactly the node's incoming keywords. Parallel construction
// gives each spawned subtree its own builder and grafts the finished slice
// into the parent's, so builders never share mutable state — except seq, the
// leaf order under construction, of which every subtree writes only its own
// rank interval.
type builder struct {
	f      *Framework
	pts    []geom.Point // partitioning coordinates by dataset id
	weight []int32      // |e.Doc| by dataset id: the verbose-set multiplicity
	seq    []int32      // rank -> dataset id
	cnt    map[dataset.Keyword]int64
	nodes  []fnode
	gate   *parGate
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

// build creates the subtree for objs, whose ranks are [lo, lo+len(objs)), and
// returns its node index within b.nodes. On return b.seq holds the subtree's
// leaf order over that interval.
func (b *builder) build(cell spart.Cell, objs []int32, incoming []dataset.Keyword, depth int, lo int32) int32 {
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
	for _, w := range incoming {
		b.cnt[w] = 0
	}
	for _, id := range objs {
		for _, w := range f.ds.Doc(id) {
			if _, track := b.cnt[w]; track {
				b.cnt[w]++
			}
		}
	}
	threshold := math.Pow(float64(nu), 1-1/float64(f.k))
	large := make(map[dataset.Keyword]int32)
	var largeList []dataset.Keyword
	// D_u^act(w) is materialized for every small incoming keyword that occurs
	// here (w was large at all proper ancestors by the inductive invariant).
	// Only the sizes are known yet: the lists hold ranks, and the subtree's
	// ranks are settled once the children are built.
	mat := make(map[dataset.Keyword]int32)
	var lists []matList
	for _, w := range incoming {
		switch c := b.cnt[w]; {
		case float64(c) >= threshold:
			large[w] = int32(len(largeList))
			largeList = append(largeList, w)
		case c > 0:
			mat[w] = int32(len(lists))
			lists = append(lists, matList{n: int32(c)})
		}
	}
	if depth == 0 {
		f.rootDF = make([]int32, len(largeList))
		for i, w := range largeList {
			f.rootDF[i] = int32(b.cnt[w])
		}
	}
	// Release the scratch keys so descendants (whose incoming sets are the
	// large keywords only) start from a clean map.
	for _, w := range incoming {
		delete(b.cnt, w)
	}

	cells, assign, ok := f.split.Split(cell, objs, b.pts, b.weight, depth)
	if !ok {
		// No geometric progress possible: finish as a leaf.
		b.leaf(idx, objs)
		return idx
	}
	// Leaf order: the pivots take the first ranks of the interval, each child
	// the next len(group) — so every child's interval is known before any
	// subtree is built, and a parallel build numbers exactly as a sequential
	// one.
	groups := make([][]int32, len(cells))
	npiv := int32(0)
	for i, id := range objs {
		if a := assign[i]; a == spart.PivotChild {
			b.seq[lo+npiv] = id
			npiv++
		} else {
			groups[a] = append(groups[a], id)
		}
	}
	b.nodes[idx].npiv = npiv
	b.nodes[idx].large = large
	b.nodes[idx].l = int32(len(largeList))

	// Per child: the k-dimensional non-emptiness bit array (bit at the
	// sorted tuple (i1 < ... < ik) of large-keyword indexes is set iff some
	// object in the child's active set carries all k keywords) and the child
	// subtree. Both depend only on the child's objects plus this node's
	// read-only large map, so heavy children are handed to other goroutines
	// when the gate has budget; the rest build inline. The results slice is
	// sized up front because spawned goroutines hold pointers into it.
	L := len(largeList)
	tsize := tensorSize(L, f.k)
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
		childCell, childLo := cells[c], clo
		clo += int32(len(g))
		if len(g) >= parallelCutoff && b.gate.tryAcquire() {
			sub := &builder{
				f: f, pts: b.pts, weight: b.weight, seq: b.seq,
				cnt:  make(map[dataset.Keyword]int64, len(largeList)),
				gate: b.gate,
			}
			r.sub = sub
			wg.Add(1)
			go func(g []int32) {
				defer wg.Done()
				defer b.gate.release()
				r.tensor = f.fillTensor(g, large, L, tsize)
				r.root = sub.build(childCell, g, largeList, depth+1, childLo)
			}(g)
			continue
		}
		r.tensor = f.fillTensor(g, large, L, tsize)
		r.root = b.build(childCell, g, largeList, depth+1, childLo)
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
	for r := lo; r < n.hi; r++ {
		for _, w := range f.ds.Doc(b.seq[r]) {
			li, ok := mat[w]
			if !ok {
				continue
			}
			if l := &lists[li]; l.words != nil {
				l.words[(r-lo)>>6] |= 1 << (uint32(r-lo) & 63)
			} else {
				l.ranks = append(l.ranks, r)
			}
		}
	}
	n.mat, n.lists = mat, lists
	return idx
}

// leaf finishes node idx as a leaf: its whole active set is its pivot set.
func (b *builder) leaf(idx int32, objs []int32) {
	n := &b.nodes[idx]
	n.npiv = int32(len(objs))
	copy(b.seq[n.lo:], objs)
}

// fillTensor builds the non-emptiness bit array of one child over its
// objects g, given the parent's large-keyword numbering.
func (f *Framework) fillTensor(g []int32, large map[dataset.Keyword]int32, L int, tsize int64) *bits.Dense {
	t := bits.NewDense(int(tsize))
	scratch := make([]int32, 0, 16)
	for _, id := range g {
		scratch = scratch[:0]
		for _, w := range f.ds.Doc(id) {
			if li, isLarge := large[w]; isLarge {
				scratch = append(scratch, li)
			}
		}
		if len(scratch) >= f.k {
			sortInt32s(scratch)
			markCombinations(t, scratch, f.k, L)
		}
	}
	return t
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
func (f *Framework) NumNodes() int { return len(f.cells) }

// PointDim returns the dimensionality of the partitioning coordinates (the
// lifted dimension for SRP-KW, the rank-space dimension for ORP-KW); query
// validation checks constraints against it.
func (f *Framework) PointDim() int { return f.pdim }

// Space returns the analytic space audit.
func (f *Framework) Space() SpaceBreakdown { return f.space }

// accountSpace audits the arenas. Two int32s pack per word; a list handle
// counts as two words. AuxWords accrue outside the tree, after this runs.
func (f *Framework) accountSpace() {
	var s SpaceBreakdown
	nn := int64(len(f.cells))
	// Skeleton: cell (2 words: interface), nu, tensorOff, tensorStride, plus
	// the eight int32 columns (l, childFirst, childCount, rankLo, rankSpan,
	// pivotCount, largeStart, matStart) at half a word each.
	s.NodeWords = 5*nn + 4*nn
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
