package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"kwsc/internal/bits"
	"kwsc/internal/codec"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/pager"
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
//   - boxes:        a kd node's tight box — the componentwise min and max of
//     the rows' coordinates over its rank interval — 2·pdim floats in one
//     arena, derived at build and at open and never stored (deriveBoxes); the
//     other splitters keep cells, as the splitter made them;
//   - pivots:       implicit — node u's are the ranks [rankLo[u],
//     rankLo[u]+pivotCount[u]);
//   - large keys:   sorted per node in one arena with the tensor numbering
//     alongside (lookup by binary search; at the root of an ORP-KW index
//     inside the span its directory leaves);
//   - mat lists:    sparse ones as their ascending ranks, back to back in one
//     int32 arena that bitpack.Cursors seek over in place; dense ones
//     (denseList) as bitmaps over the node's rank interval, back to back in
//     one word arena;
//   - tensors:      every per-child L^k-bit non-emptiness array concatenated
//     word-aligned into one bits.Arena, addressed as tensorOff + child*stride.
type flatLayout struct {
	// Node skeleton, BFS order. Children of node u are exactly the ids
	// [childFirst[u], childFirst[u]+childCount[u]), in original child order.
	// A kd tree keeps boxes, node u's Lo at boxes[2·pdim·u:] and its Hi
	// pdim floats on, and no cells; every other tree keeps cells only.
	cells      []spart.Cell
	boxes      []float64
	nu         []int64
	l          []int32 // L = number of large keywords
	childFirst []int32
	childCount []int32

	// Rank intervals: node u's active set is the ranks [rankLo[u],
	// rankLo[u]+rankSpan[u]), the first pivotCount[u] of them its pivot set.
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
	//
	// Of the columns above, childFirst, l, rankLo, rankSpan, tensorOff,
	// tensorStride and every list's Start follow from the others (derive).
	tensorOff    []int64
	tensorStride []int64
	tensorArena  bits.Arena

	// Directories over the root's runs of largeKeys and matKeys for
	// rootLookup, derived by indexRoot and never stored. The zero Directory,
	// which an index that does not call indexRoot has, leaves a lookup the
	// whole run.
	rootLarge, rootMat dataset.Directory
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

// flatImage is a Framework as its flat image holds it: the framework's
// independent columns and, beside them, the sections that hold a column in
// another form — the rows' three, the list handles as int32 pairs, the
// tensor arena's words — and the image's meta.
type flatImage struct {
	Framework
	meta     []uint64  // {flatSplitKD, pdim, nodes, codec.FlatImageVersion}
	points   []float64 // the rows, by rank
	docStart []int64
	docWords []dataset.Keyword
	lists    []int32  // matLists, {N, Rep} each
	tensors  []uint64 // tensorArena's words
}

// flatColumn pairs one section of a flat image with its column. A skeleton
// column is read by every traversal from the first query, so an open
// prefetches it.
type flatColumn struct {
	id       uint32
	skeleton bool
	put      func(m *flatImage) []byte
	read     func(m *flatImage, c *codec.Container, f *pager.File) error
}

func column[T pager.Word](id uint32, skeleton bool, col func(m *flatImage) *[]T) flatColumn {
	return flatColumn{id: id, skeleton: skeleton,
		put: func(m *flatImage) []byte { return codec.Put(*col(m)) },
		read: func(m *flatImage, c *codec.Container, f *pager.File) (err error) {
			*col(m), err = codec.Column[T](c, f, id)
			return err
		},
	}
}

// flatColumns is the flat image (flatsnap.go): its sections in file order,
// each with the column it holds. A save writes every column, an open reads
// every one back before it validates them together. The ids and what each
// column holds are listed in codec/sections.go; what derive computes, the
// boxes and the root directories are never stored.
var flatColumns = []flatColumn{
	column(codec.SecFlatMeta, true, func(m *flatImage) *[]uint64 { return &m.meta }),
	column(codec.SecFlatNu, true, func(m *flatImage) *[]int64 { return &m.nu }),
	column(codec.SecFlatChildCount, true, func(m *flatImage) *[]int32 { return &m.childCount }),
	column(codec.SecFlatPivotCount, true, func(m *flatImage) *[]int32 { return &m.pivotCount }),
	column(codec.SecFlatRankIDs, false, func(m *flatImage) *[]int32 { return &m.ids }),
	column(codec.SecFlatLargeStart, false, func(m *flatImage) *[]int32 { return &m.largeStart }),
	column(codec.SecFlatLargeKeys, false, func(m *flatImage) *[]dataset.Keyword { return &m.largeKeys }),
	column(codec.SecFlatLargeIdx, false, func(m *flatImage) *[]int32 { return &m.largeIdx }),
	column(codec.SecFlatMatStart, false, func(m *flatImage) *[]int32 { return &m.matStart }),
	column(codec.SecFlatMatKeys, false, func(m *flatImage) *[]dataset.Keyword { return &m.matKeys }),
	column(codec.SecFlatMatHandles, false, func(m *flatImage) *[]int32 { return &m.lists }),
	column(codec.SecFlatMatRanks, false, func(m *flatImage) *[]int32 { return &m.matRanks }),
	column(codec.SecFlatMatBits, false, func(m *flatImage) *[]uint64 { return &m.matBits }),
	column(codec.SecFlatTensorWrds, false, func(m *flatImage) *[]uint64 { return &m.tensors }),
	column(codec.SecFlatPoints, false, func(m *flatImage) *[]float64 { return &m.points }),
	column(codec.SecFlatDocStart, false, func(m *flatImage) *[]int64 { return &m.docStart }),
	column(codec.SecFlatDocWords, false, func(m *flatImage) *[]dataset.Keyword { return &m.docWords }),
}

// pack fills the independent columns of the layout from the builder's nodes
// (index 0 is the root) and their cells, by node; a kd tree has none (cells
// nil). derive computes the rest.
func (f *Framework) pack(nodes []fnode, cells []spart.Cell) {
	nn := len(nodes)
	// Pass 1: BFS over the builder's tree. order[newID] = oldID; a node's
	// children are assigned consecutive new ids the moment it is dequeued.
	order := make([]int32, 1, nn)
	f.flatLayout = flatLayout{
		nu:         make([]int64, nn),
		childCount: make([]int32, nn),
		pivotCount: make([]int32, nn),
		largeStart: make([]int32, nn+1),
		matStart:   make([]int32, nn+1),
	}
	fl := &f.flatLayout
	if cells != nil {
		fl.cells = make([]spart.Cell, nn)
	}
	var large, mat, ranks, words, tensorWords int // the payload arenas' sizes
	for head := 0; head < len(order); head++ {
		n := &nodes[order[head]]
		fl.childCount[head] = int32(len(n.children))
		order = append(order, n.children...)
		if kw := n.kw; kw != nil {
			large, mat = large+len(kw.large), mat+len(kw.mat)
			for _, l := range kw.lists {
				ranks, words = ranks+len(l.ranks), words+len(l.words)
			}
			tensorWords += len(kw.tensors)
		}
	}
	// Each arena is cut to size once: growing one by appends would copy it
	// about four more times over.
	fl.largeKeys, fl.largeIdx = make([]dataset.Keyword, 0, large), make([]int32, 0, large)
	fl.matKeys, fl.matLists = make([]dataset.Keyword, 0, mat), make([]FlatList, 0, mat)
	fl.matRanks, fl.matBits = make([]int32, 0, ranks), make([]uint64, 0, words)
	tensors := make([]uint64, 0, tensorWords)

	// Pass 2: pack payloads in the new order.
	var perm []int32
	for newID, oldID := range order {
		n := &nodes[oldID]
		if fl.cells != nil {
			fl.cells[newID] = cells[oldID]
		}
		fl.nu[newID] = n.nu
		fl.pivotCount[newID] = n.npiv
		kw := n.kw
		if kw == nil {
			fl.largeStart[newID+1], fl.matStart[newID+1] = int32(len(fl.largeKeys)), int32(len(fl.matKeys))
			continue
		}

		perm = byKeyword(perm[:0], kw.large)
		for _, i := range perm {
			fl.largeKeys = append(fl.largeKeys, kw.large[i])
			fl.largeIdx = append(fl.largeIdx, i)
		}
		fl.largeStart[newID+1] = int32(len(fl.largeKeys))

		perm = byKeyword(perm[:0], kw.mat)
		for _, i := range perm {
			fl.matKeys = append(fl.matKeys, kw.mat[i])
			l := &kw.lists[i]
			if l.words == nil {
				fl.matLists = append(fl.matLists, FlatList{N: l.n, Rep: ListRanks})
				fl.matRanks = append(fl.matRanks, l.ranks...)
				continue
			}
			fl.matLists = append(fl.matLists, FlatList{N: l.n, Rep: ListBitmap})
			fl.matBits = append(fl.matBits, l.words...)
		}
		fl.matStart[newID+1] = int32(len(fl.matKeys))
		tensors = append(tensors, kw.tensors...)
	}
	fl.tensorArena = bits.ArenaFromWords(tensors)
}

// derive computes every column of the layout that the independent ones
// determine, and then the boxes and the space audit. BuildFramework runs it
// after pack, an open after checking the columns it read (checkImage), so
// each derived column has this one writer:
//
//   - childFirst: BFS order numbers a node's children right after those of
//     every node before it;
//   - rankSpan and rankLo: a node spans its pivots and its children's spans;
//     the pivots take the first ranks of its interval and the children's
//     intervals follow in child order;
//   - l, tensorStride and tensorOff: a node's large keywords are its run of
//     largeKeys, and each child of an internal node has ceil(L^k/64) tensor
//     words, back to back in node order;
//   - each list's Start: the arenas hold the lists back to back in handle
//     order, a sparse one its N ranks, a bitmap ceil(span/64) words.
//
// It refuses, with an error an open reports as codec.ErrCorrupt, a tree whose
// spans do not come to the rank column's length, a tensor past
// tensorWordsChecked's bound, an arena whose length is not the derived total,
// and a NaN coordinate in a kd tree, which no box can hold. It expects the
// shape checkImage checks: BFS child counts that cover the nodes, prefix
// offsets, pivot counts and list lengths that are not negative.
func (f *Framework) derive() error {
	fl := &f.flatLayout
	nn := len(fl.nu)
	fl.childFirst, fl.l = make([]int32, nn), make([]int32, nn)
	fl.rankLo, fl.rankSpan = make([]int32, nn), make([]int32, nn)
	fl.tensorOff, fl.tensorStride = make([]int64, nn), make([]int64, nn)
	next := int32(1)
	for u := range nn {
		fl.childFirst[u], next = next, next+fl.childCount[u]
		fl.l[u] = fl.largeStart[u+1] - fl.largeStart[u]
	}
	n := int64(len(f.ids))
	for u := nn - 1; u >= 0; u-- {
		span := int64(fl.pivotCount[u])
		for c := fl.childFirst[u]; c < fl.childFirst[u]+fl.childCount[u]; c++ {
			span += int64(fl.rankSpan[c])
		}
		if span > n {
			return fmt.Errorf("node %d spans %d ranks of %d", u, span, n)
		}
		fl.rankSpan[u] = int32(span)
	}
	if int64(fl.rankSpan[0]) != n {
		return fmt.Errorf("the tree spans %d ranks of %d", fl.rankSpan[0], n)
	}
	arena := [2]int64{int64(len(fl.matRanks)), int64(len(fl.matBits))} // by Rep
	var tensors int64
	var lists [2]int64
	for u := range nn {
		lo := fl.rankLo[u] + fl.pivotCount[u]
		for c := fl.childFirst[u]; c < fl.childFirst[u]+fl.childCount[u]; c++ {
			fl.rankLo[c], lo = lo, lo+fl.rankSpan[c]
		}
		if cc := int64(fl.childCount[u]); cc > 0 {
			stride, ok := tensorWordsChecked(int64(fl.l[u]), f.k)
			if !ok || stride > 0 && cc > (f.tensorArena.Words()-tensors)/stride {
				return fmt.Errorf("node %d tensors overrun the arena of %d words", u, f.tensorArena.Words())
			}
			fl.tensorOff[u], fl.tensorStride[u] = tensors, stride
			tensors += cc * stride
		}
		for i := fl.matStart[u]; i < fl.matStart[u+1]; i++ {
			l := &fl.matLists[i]
			size := int64(l.N)
			if l.Rep == ListBitmap {
				size = int64(bitmapWords(int(fl.rankSpan[u])))
			}
			if size > arena[l.Rep]-lists[l.Rep] {
				return fmt.Errorf("node %d list %d overruns its arena of %d", u, i, arena[l.Rep])
			}
			l.Start, lists[l.Rep] = int32(lists[l.Rep]), lists[l.Rep]+size
		}
	}
	if tensors != f.tensorArena.Words() || lists != arena {
		return fmt.Errorf("arenas of %d tensor words, %d ranks and %d bitmap words; the tree derives %d, %d and %d",
			f.tensorArena.Words(), arena[0], arena[1], tensors, lists[0], lists[1])
	}
	if _, kd := f.split.(*spart.KD); kd && !f.deriveBoxes() {
		return fmt.Errorf("a NaN coordinate has no place in a box")
	}
	f.accountSpace()
	return nil
}

// deriveBoxes sets every node's tight box from the rows' coordinates: the
// componentwise min and max of the coordinates of its rank interval, pivots
// included. Children follow their parent in BFS order, so one backward pass
// folds a node's pivots and its children's boxes — every coordinate and
// every box is read once, O(N·pdim + nodes·pdim). It reports false, leaving
// no boxes, on a NaN coordinate, which no box can hold.
func (f *Framework) deriveBoxes() bool {
	fl, d := &f.flatLayout, f.pdim
	coords, _, _ := f.rows.Columns()
	boxes := make([]float64, 2*d*len(fl.nu))
	for u := len(fl.nu) - 1; u >= 0; u-- {
		lo, hi := boxes[2*d*u:(2*u+1)*d], boxes[(2*u+1)*d:2*d*(u+1)]
		for j := range lo {
			lo[j], hi[j] = math.Inf(1), math.Inf(-1)
		}
		for r := fl.rankLo[u]; r < fl.rankLo[u]+fl.pivotCount[u]; r++ {
			for j, c := range coords[int(r)*d : int(r+1)*d] {
				if c != c {
					return false
				}
				lo[j], hi[j] = min(lo[j], c), max(hi[j], c)
			}
		}
		for c := int(fl.childFirst[u]); c < int(fl.childFirst[u]+fl.childCount[u]); c++ {
			for j := range lo {
				lo[j], hi[j] = min(lo[j], boxes[2*d*c+j]), max(hi[j], boxes[(2*c+1)*d+j])
			}
		}
	}
	fl.boxes = boxes
	return true
}

// relate classifies region q against node u: its tight box in a kd tree, its
// splitter cell in any other.
func (f *Framework) relate(u int32, q geom.Region) geom.Relation {
	if f.boxes == nil {
		return f.split.Relate(f.cells[u], q)
	}
	d := int(u) * 2 * f.pdim
	return q.RelateRect(f.boxes[d:d+f.pdim], f.boxes[d+f.pdim:d+2*f.pdim])
}

// byKeyword appends to perm the indexes of keys in ascending keyword order.
func byKeyword(perm []int32, keys []dataset.Keyword) []int32 {
	for i := range keys {
		perm = append(perm, int32(i))
	}
	slices.SortFunc(perm, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
	return perm
}

// indexRoot derives the root's keyword directories and returns their words.
// An index calls it when its queries look the root up once per part — every
// Bentley–Saxe bucket of a dynamic query — so that rootLookup costs O(1)
// expected.
func (fl *flatLayout) indexRoot() int64 {
	fl.rootLarge = dataset.NewDirectory(fl.largeKeys[fl.largeStart[0]:fl.largeStart[1]])
	fl.rootMat = dataset.NewDirectory(fl.matKeys[fl.matStart[0]:fl.matStart[1]])
	return fl.rootLarge.Words() + fl.rootMat.Words()
}

// keyAt returns the position of w in the ascending keys[lo:hi], or -1. The
// search is written out so the query path stays closure-free.
func keyAt(keys []dataset.Keyword, lo, hi int32, w dataset.Keyword) int32 {
	end := hi
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if keys[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && keys[lo] == w {
		return lo
	}
	return -1
}

// largeLookup is T_u's table of large keywords: a binary search over the
// node's sorted key range, returning the tensor axis index.
func (fl *flatLayout) largeLookup(u int32, w dataset.Keyword) (int32, bool) {
	if i := keyAt(fl.largeKeys, fl.largeStart[u], fl.largeStart[u+1], w); i >= 0 {
		return fl.largeIdx[i], true
	}
	return 0, false
}

// matLookup returns the index into matLists of node u's materialized list for
// w, or -1 when u has none.
func (fl *flatLayout) matLookup(u int32, w dataset.Keyword) int32 {
	return keyAt(fl.matKeys, fl.matStart[u], fl.matStart[u+1], w)
}

// rootLookup is largeLookup and then matLookup at the root, each search
// confined to the span the run's directory leaves for w. li is w's tensor
// axis index when w is large at the root; otherwise mi is the index into
// matLists of its list there, or -1.
func (fl *flatLayout) rootLookup(w dataset.Keyword) (li int32, large bool, mi int32) {
	lo, hi := fl.largeStart[0], fl.largeStart[1]
	from, to := fl.rootLarge.Span(w, int(hi-lo))
	if i := keyAt(fl.largeKeys, lo+int32(from), lo+int32(to), w); i >= 0 {
		return fl.largeIdx[i], true, -1
	}
	lo, hi = fl.matStart[0], fl.matStart[1]
	from, to = fl.rootMat.Span(w, int(hi-lo))
	return 0, false, keyAt(fl.matKeys, lo+int32(from), lo+int32(to), w)
}

// tensorGet reads the non-emptiness bit lin of node u's child ci.
func (fl *flatLayout) tensorGet(u, ci int32, lin int64) bool {
	return fl.tensorArena.Get(fl.tensorOff[u]+int64(ci)*fl.tensorStride[u], lin)
}
