package core

import (
	"slices"

	"kwsc/internal/bits"
	"kwsc/internal/dataset"
	"kwsc/internal/spart"
)

// flatLayout is the tree of a Framework as queries read it: nodes in BFS
// (level) order, packed into contiguous struct-of-arrays slices. BFS order
// makes every node's children a contiguous id range — the multiway analog of
// the Eytzinger layout — so the child "list" is two int32s (childFirst,
// childCount) and a descent touches consecutive cache lines instead of
// chasing per-node slice headers. Node payloads live in shared arenas
// addressed by monotone start offsets:
//
//   - pivots:       implicit — node u's are the ranks [rankLo[u],
//     rankLo[u]+pivotCount[u]);
//   - large keys:   sorted per node in one arena with the tensor numbering
//     alongside (lookup by binary search);
//   - mat lists:    sparse ones as their ascending ranks, back to back in one
//     int32 arena that bitpack.Cursors seek over in place; dense ones
//     (denseList) as bitmaps over the node's rank interval, back to back in
//     one word arena;
//   - tensors:      every per-child L^k-bit non-emptiness array concatenated
//     word-aligned into one bits.Arena, addressed as tensorOff + child*stride.
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
	// carries the tensor axis index.
	largeStart []int32
	largeKeys  []dataset.Keyword
	largeIdx   []int32

	// Materialized small-keyword lists: keys sorted per node; matLists[i] is
	// the handle for matKeys[i], into matRanks or matBits.
	matStart []int32
	matKeys  []dataset.Keyword
	matLists []FlatList
	matRanks []int32
	matBits  []uint64

	// Non-emptiness tensors: node u's child ci occupies tensorStride[u] words
	// starting at tensorOff[u] + ci*tensorStride[u] in tensorArena.
	tensorOff    []int64
	tensorStride []int64
	tensorArena  bits.Arena
}

// FlatList is the handle of one materialized list of N ranks at a node u:
// with Rep == ListRanks the ascending ranks matRanks[Start : Start+N], with
// Rep == ListBitmap a bitmap of bitmapWords(rankSpan[u]) words starting at
// word Start of matBits.
type FlatList struct {
	Start, N, Rep int32
}

// The representations a FlatList can name.
const (
	ListRanks  = 0
	ListBitmap = 1
)

// pack fills the layout from the builder's nodes (index 0 is the root).
func (f *Framework) pack(nodes []fnode) {
	nn := len(nodes)
	// Pass 1: BFS over the builder's tree. order[newID] = oldID; a node's
	// children are assigned consecutive new ids the moment it is dequeued.
	order := make([]int32, 1, nn)
	f.flatLayout = flatLayout{
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
	fl := &f.flatLayout
	for head := 0; head < len(order); head++ {
		n := &nodes[order[head]]
		fl.childFirst[head] = int32(len(order))
		fl.childCount[head] = int32(len(n.children))
		order = append(order, n.children...)
	}

	// Pass 2: pack payloads in the new order.
	var keyScratch []dataset.Keyword
	for newID, oldID := range order {
		n := &nodes[oldID]
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
		slices.Sort(keyScratch)
		for _, w := range keyScratch {
			fl.largeKeys = append(fl.largeKeys, w)
			fl.largeIdx = append(fl.largeIdx, n.large[w])
		}
		fl.largeStart[newID+1] = int32(len(fl.largeKeys))

		keyScratch = keyScratch[:0]
		for w := range n.mat {
			keyScratch = append(keyScratch, w)
		}
		slices.Sort(keyScratch)
		for _, w := range keyScratch {
			fl.matKeys = append(fl.matKeys, w)
			l := &n.lists[n.mat[w]]
			if l.words == nil {
				fl.matLists = append(fl.matLists, FlatList{Start: int32(len(fl.matRanks)), N: l.n, Rep: ListRanks})
				fl.matRanks = append(fl.matRanks, l.ranks...)
				continue
			}
			fl.matLists = append(fl.matLists, FlatList{Start: int32(len(fl.matBits)), N: l.n, Rep: ListBitmap})
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
}

// largeLookup is T_u's table of large keywords: a binary search over the
// node's sorted key range, returning the tensor axis index. Manual search
// keeps the query path closure-free.
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
// w, or -1 when u has none.
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
