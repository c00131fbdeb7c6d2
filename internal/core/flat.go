package core

import (
	"sort"

	"kwsc/internal/bitpack"
	"kwsc/internal/bits"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/spart"
)

// flatLayout is the cache-conscious form of a built Framework: the pointer
// tree of fnodes re-ordered into BFS (level) order and packed into contiguous
// struct-of-arrays slices. BFS order makes every node's children a contiguous
// id range — the multiway analog of the Eytzinger layout — so the child "list"
// is two int32s (childFirst, childCount) and a descent touches consecutive
// cache lines instead of chasing per-node slice headers. Node payloads move
// into shared arenas addressed by monotone start offsets:
//
//   - pivots:       implicit — node u's are the ranks [rankLo[u],
//     rankLo[u]+pivotCount[u]);
//   - large keys:   sorted per node in one arena with the original tensor
//     numbering alongside (lookup by binary search — the per-node maps, with
//     their buckets and padding, are freed);
//   - mat lists:    sparse ones delta-encoded via bitpack into fixed-size
//     packed blocks in one shared PackedLists arena, walked by bitpack.Cursors
//     at query time; dense ones (denseList) as bitmaps over the node's rank
//     interval, back to back in one word arena;
//   - tensors:      every per-child L^k-bit non-emptiness array concatenated
//     word-aligned into one bits.Arena, addressed as tensorOff + child*stride.
//
// The layout is query-equivalent to the pointer form by construction: the
// traversal order, the stats counted, and every emitted id are identical
// (tested property-style in flat_test.go).
type flatLayout struct {
	// Node skeleton, BFS order. Children of node u are exactly the ids
	// [childFirst[u], childFirst[u]+childCount[u]), in original child order.
	cells      []spart.Cell
	nu         []int64
	l          []int32 // L = number of large keywords
	childFirst []int32
	childCount []int32

	// Rank intervals: node u's active set is the ranks [rankLo[u],
	// rankLo[u]+rankSpan[u]), the first pivotCount[u] of them its pivot set.
	// rankSpan is not part of the image: it follows from the pivot counts and
	// the tree shape.
	rankLo     []int32
	rankSpan   []int32
	pivotCount []int32

	// Large keywords, sorted by keyword per node, parallel to largeIdx which
	// carries the original large-map value (the tensor axis index).
	largeStart []int32
	largeKeys  []dataset.Keyword
	largeIdx   []int32

	// Materialized small-keyword lists: keys sorted per node; matLists[i] is
	// the handle for matKeys[i] — of packed blocks inside matArena, or, with
	// NumBlocks == bitmapList, of a bitmap of bitmapWords(rankSpan[u]) words
	// starting at word Block of matBits.
	matStart []int32
	matKeys  []dataset.Keyword
	matLists []bitpack.List
	matArena bitpack.PackedLists
	matBits  []uint64

	// Non-emptiness tensors: node u's child ci occupies tensorStride[u] words
	// starting at tensorOff[u] + ci*tensorStride[u] in tensorArena.
	tensorOff    []int64
	tensorStride []int64
	tensorArena  bits.Arena
}

// bitmapList is the NumBlocks of a flat list handle that names a bitmap in
// matBits instead of packed blocks in matArena.
const bitmapList = -1

// Flatten converts the index into the flat layout, releasing the pointer tree
// to the collector. It is idempotent and must not run concurrently with
// queries (flatten at startup, before serving). Queries, stats, and policy
// semantics are unchanged — only the memory layout is.
func (f *Framework) Flatten() {
	if f.flat != nil || len(f.nodes) == 0 {
		return
	}
	nn := len(f.nodes)
	// Pass 1: BFS over the pointer tree. order[newID] = oldID; a node's
	// children are assigned consecutive new ids the moment it is dequeued.
	order := make([]int32, 1, nn)
	fl := &flatLayout{
		cells:        make([]spart.Cell, nn),
		nu:           make([]int64, nn),
		l:            make([]int32, nn),
		childFirst:   make([]int32, nn),
		childCount:   make([]int32, nn),
		rankLo:       make([]int32, nn),
		rankSpan:     make([]int32, nn),
		pivotCount:   make([]int32, nn),
		largeStart:   make([]int32, nn+1),
		matStart:     make([]int32, nn+1),
		tensorOff:    make([]int64, nn),
		tensorStride: make([]int64, nn),
	}
	for head := 0; head < len(order); head++ {
		n := &f.nodes[order[head]]
		fl.childFirst[head] = int32(len(order))
		fl.childCount[head] = int32(len(n.children))
		order = append(order, n.children...)
	}

	// Pass 2: pack payloads in the new order.
	var keyScratch []dataset.Keyword
	for newID, oldID := range order {
		n := &f.nodes[oldID]
		fl.cells[newID] = n.cell
		fl.nu[newID] = n.nu
		fl.l[newID] = n.l

		fl.rankLo[newID] = n.lo
		fl.rankSpan[newID] = n.hi - n.lo
		fl.pivotCount[newID] = n.npiv

		keyScratch = keyScratch[:0]
		for w := range n.large {
			keyScratch = append(keyScratch, w)
		}
		sortKeywords(keyScratch)
		for _, w := range keyScratch {
			fl.largeKeys = append(fl.largeKeys, w)
			fl.largeIdx = append(fl.largeIdx, n.large[w])
		}
		fl.largeStart[newID+1] = int32(len(fl.largeKeys))

		keyScratch = keyScratch[:0]
		for w := range n.mat {
			keyScratch = append(keyScratch, w)
		}
		sortKeywords(keyScratch)
		for _, w := range keyScratch {
			fl.matKeys = append(fl.matKeys, w)
			l := &n.lists[n.mat[w]]
			if l.words == nil {
				fl.matLists = append(fl.matLists, fl.matArena.Append(l.ranks))
				continue
			}
			fl.matLists = append(fl.matLists, bitpack.List{Block: int32(len(fl.matBits)), NumBlocks: bitmapList, N: l.n})
			fl.matBits = append(fl.matBits, l.words...)
		}
		fl.matStart[newID+1] = int32(len(fl.matKeys))

		if len(n.tensors) > 0 {
			fl.tensorOff[newID] = fl.tensorArena.Words()
			fl.tensorStride[newID] = (tensorSize(int(n.l), f.k) + 63) / 64
			for _, t := range n.tensors {
				fl.tensorArena.AppendDense(t)
			}
		}
	}
	f.flat = fl
	f.nodes = nil
	f.accountSpaceFlat()
}

// IsFlat reports whether the index has been converted to the flat layout.
func (f *Framework) IsFlat() bool { return f.flat != nil }

func sortKeywords(ws []dataset.Keyword) {
	sort.Slice(ws, func(a, b int) bool { return ws[a] < ws[b] })
}

// largeLookup is the flat replacement for the per-node large map: binary
// search over the node's sorted key range, returning the original tensor
// axis index. Manual search keeps the query path closure-free.
func (fl *flatLayout) largeLookup(u int32, w dataset.Keyword) (int32, bool) {
	lo, hi := fl.largeStart[u], fl.largeStart[u+1]
	end := hi
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if fl.largeKeys[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && fl.largeKeys[lo] == w {
		return fl.largeIdx[lo], true
	}
	return 0, false
}

// matLookup returns the index into matLists of node u's materialized list for
// w, or -1 when u has none (an fnode's mat map would have had no entry).
func (fl *flatLayout) matLookup(u int32, w dataset.Keyword) int32 {
	lo, hi := fl.matStart[u], fl.matStart[u+1]
	end := hi
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if fl.matKeys[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && fl.matKeys[lo] == w {
		return lo
	}
	return -1
}

// tensorGet reads the non-emptiness bit lin of node u's child ci.
func (fl *flatLayout) tensorGet(u, ci int32, lin int64) bool {
	return fl.tensorArena.Get(fl.tensorOff[u]+int64(ci)*fl.tensorStride[u], lin)
}

// visitFlat is visit for the flat layout: the same traversal, stats, and stop
// points, reading through the struct-of-arrays view and handing the same
// routines (scanPivots, intersectSmall) packed lists in place of slices. The
// two must stay in lockstep — flat_test.go asserts byte-identical results and
// stats.
func (qc *qctx) visitFlat(u int32, rel geom.Relation) {
	if qc.stop() {
		return
	}
	f := qc.f
	fl := f.flat
	failpoint(FPFrameworkVisit)
	qc.st.NodesVisited++
	qc.st.Ops++
	covered := rel == geom.Covered
	if covered {
		qc.st.CoveredNodes++
	} else {
		qc.st.CrossingNodes++
	}

	lo := fl.rankLo[u]
	if fl.childCount[u] == 0 {
		qc.scanPivots(lo, lo+fl.pivotCount[u], covered)
		return
	}

	// Large/small classification mirrors visit; an absent or empty list ends
	// the node at once.
	s, probe, ms, md := qc.sorted[:0], qc.probe[:0], 0, 0
	for _, w := range qc.ws {
		if li, ok := fl.largeLookup(u, w); ok {
			s, probe = append(s, li), append(probe, w)
			continue
		}
		mi := fl.matLookup(u, w)
		if mi < 0 || fl.matLists[mi].N == 0 {
			return
		}
		if l := fl.matLists[mi]; l.NumBlocks == bitmapList {
			qc.bm[md] = fl.matBits[l.Block : int(l.Block)+bitmapWords(int(fl.rankSpan[u]))]
			md++
		} else {
			qc.cur[ms].Reset(&fl.matArena, l)
			ms++
		}
	}
	if ms+md > 0 {
		qc.probe = probe
		qc.intersectSmall(ms, md, lo, covered)
		return
	}

	if !qc.scanPivots(lo, lo+fl.pivotCount[u], covered) {
		return
	}
	sortInt32s(s)
	lin := tensorIndex(s, int(fl.l[u]))
	first, count := fl.childFirst[u], fl.childCount[u]
	for ci := int32(0); ci < count; ci++ {
		if !fl.tensorGet(u, ci, lin) {
			continue
		}
		child := first + ci
		crel := geom.Covered
		if !covered {
			crel = f.split.Relate(fl.cells[child], qc.q)
			if crel == geom.Disjoint {
				continue
			}
		}
		qc.visitFlat(child, crel)
		if qc.done {
			return
		}
	}
}

// crossingCostFlat is CrossingCost's traversal over the flat layout.
func (f *Framework) crossingCostFlat(q geom.Region, ws []dataset.Keyword) float64 {
	fl := f.flat
	var cost float64
	exp := 1 - 1/float64(f.k)
	var rec func(u int32)
	rec = func(u int32) {
		stopsHere := fl.childCount[u] == 0
		if !stopsHere {
			for _, w := range ws {
				if _, ok := fl.largeLookup(u, w); !ok {
					stopsHere = true
					break
				}
			}
		}
		if stopsHere {
			cost += pow(float64(fl.nu[u]), exp)
			return
		}
		cost++
		s := make([]int32, 0, f.k)
		for _, w := range ws {
			li, _ := fl.largeLookup(u, w)
			s = append(s, li)
		}
		sortInt32s(s)
		lin := tensorIndex(s, int(fl.l[u]))
		first, count := fl.childFirst[u], fl.childCount[u]
		for ci := int32(0); ci < count; ci++ {
			if !fl.tensorGet(u, ci, lin) {
				continue
			}
			if f.split.Relate(fl.cells[first+ci], q) == geom.Crossing {
				rec(first + ci)
			}
		}
	}
	if len(fl.cells) > 0 && f.split.Relate(fl.cells[0], q) == geom.Crossing {
		rec(0)
	}
	return cost
}

// accountSpaceFlat recomputes the space audit from the flat arenas, keeping
// the problem-specific terms (AuxWords, DocHashWords) that accrued outside
// the tree. Two int32s pack per word; the List handles count as two words.
func (f *Framework) accountSpaceFlat() {
	fl := f.flat
	s := SpaceBreakdown{AuxWords: f.space.AuxWords, DocHashWords: f.space.DocHashWords}
	nn := int64(len(fl.cells))
	// Skeleton SoA: cell (2 words: interface), nu, tensorOff, tensorStride,
	// plus the eight int32 columns (l, childFirst, childCount, rankLo,
	// rankSpan, pivotCount, largeStart, matStart) at half a word each.
	s.NodeWords = 5*nn + 4*nn
	s.PivotWords = (int64(len(f.ids)) + 1) / 2 // the rank -> id column: see accountSpace
	s.LargeWords = int64(len(fl.largeKeys))    // key + idx = two int32s
	s.MatWords = fl.matArena.SpaceWords() + int64(len(fl.matBits)) + 2*int64(len(fl.matLists)) + int64(len(fl.matKeys))/2
	s.TensorBits = fl.tensorArena.SpaceBits()
	f.space = s
}

// numNodesFlat, maxPivotsFlat, heightFlat back the Framework accessors after
// flattening.
func (fl *flatLayout) numNodes() int { return len(fl.cells) }

func (fl *flatLayout) maxPivots() int {
	m := 0
	for u := range fl.cells {
		if fl.childCount[u] > 0 {
			if p := int(fl.pivotCount[u]); p > m {
				m = p
			}
		}
	}
	return m
}

func (fl *flatLayout) height() int {
	if len(fl.cells) == 0 {
		return -1
	}
	var rec func(u int32) int
	rec = func(u int32) int {
		h := 0
		first, count := fl.childFirst[u], fl.childCount[u]
		for ci := int32(0); ci < count; ci++ {
			if ch := rec(first+ci) + 1; ch > h {
				h = ch
			}
		}
		return h
	}
	return rec(0)
}
