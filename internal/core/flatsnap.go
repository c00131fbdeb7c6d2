package core

import (
	"fmt"
	"math"
	mbits "math/bits"

	"kwsc/internal/bits"
	"kwsc/internal/codec"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/spart"
)

// This file is the serialization boundary of the flat layout: ExportFlat
// exposes a Framework as plain columns (FlatArenas), and
// NewFrameworkFromFlat rebuilds a query-ready Framework from untrusted
// columns — e.g. ones aliasing a read-only KWCP2 mapping (internal/flatio).
// Only rectangle splitters (spart.KD, spart.Box) round-trip: their cells are
// 2*pdim float64 bounds. Willard2D cells are convex polygons built during the
// ham-sandwich recursion and have no fixed-width serialized form.

// Splitter kinds a FlatArenas image can carry.
const (
	FlatSplitKD  = 1 // spart.KD over PDim-dimensional points
	FlatSplitBox = 2 // spart.Box over PDim-dimensional points
)

// FlatArenas is the column image of a Framework: every slice of
// flatLayout as a flat, fixed-width array, in BFS node order. Slices returned
// by ExportFlat alias the live index and must be treated as read-only;
// slices given to NewFrameworkFromFlat are aliased by the result and must
// stay immutable for the index's lifetime (they may point into a PROT_READ
// mapping).
type FlatArenas struct {
	SplitterKind int // FlatSplitKD or FlatSplitBox
	K            int // query keyword arity
	PDim         int // partitioning-coordinate dimensionality
	NumObjects   int // dataset size; an image indexes every object

	// Objects by rank (leaf order, see Framework): RankIDs[r] is the dataset
	// id of rank r, Coords its PDim partitioning coordinates, row-major.
	RankIDs []int32
	Coords  []float64

	// Node skeleton, BFS order (see flatLayout). CellBounds packs each cell
	// as Lo[0..PDim) then Hi[0..PDim). Node u's active set is the rank
	// interval starting at RankLo[u]; its first PivotCount[u] ranks are the
	// pivot set and its children's intervals follow in child order.
	CellBounds []float64
	Nu         []int64
	L          []int32
	ChildFirst []int32
	ChildCount []int32
	RankLo     []int32
	PivotCount []int32

	// Large keywords, sorted per node, parallel to the tensor axis indexes.
	LargeStart []int32
	LargeKeys  []dataset.Keyword
	LargeIdx   []int32

	// Materialized small-keyword lists: a handle names ascending ranks in
	// MatRanks or a bitmap over the node's interval in MatBits (see FlatList).
	MatStart []int32
	MatKeys  []dataset.Keyword
	MatLists []FlatList
	MatRanks []int32
	MatBits  []uint64

	// Non-emptiness tensors: node u's child ci occupies TensorStride[u]
	// words at TensorOff[u] + ci*TensorStride[u].
	TensorOff    []int64
	TensorStride []int64
	TensorWords  []uint64
}

// ExportFlat exposes the layout as serializable columns. The splitter must be
// spart.KD or spart.Box. The returned slices alias the index — callers must
// treat them as read-only.
func (f *Framework) ExportFlat() (*FlatArenas, error) {
	var kind int
	switch f.split.(type) {
	case *spart.KD:
		kind = FlatSplitKD
	case *spart.Box:
		kind = FlatSplitBox
	default:
		return nil, fmt.Errorf("core: splitter %T has no serializable cells (KD and Box only)", f.split)
	}
	if len(f.ids) != f.ds.Len() {
		return nil, fmt.Errorf("core: framework indexes %d of the dataset's %d objects; an image holds all", len(f.ids), f.ds.Len())
	}
	fl := &f.flatLayout
	nn := len(fl.cells)
	a := &FlatArenas{
		SplitterKind: kind,
		K:            f.k,
		PDim:         f.pdim,
		NumObjects:   f.ds.Len(),
		RankIDs:      f.ids,
		Coords:       f.coords,

		Nu:         fl.nu,
		L:          fl.l,
		ChildFirst: fl.childFirst,
		ChildCount: fl.childCount,
		RankLo:     fl.rankLo,
		PivotCount: fl.pivotCount,
		LargeStart: fl.largeStart,
		LargeKeys:  fl.largeKeys,
		LargeIdx:   fl.largeIdx,
		MatStart:   fl.matStart,
		MatKeys:    fl.matKeys,
		MatLists:   fl.matLists,
		MatRanks:   fl.matRanks,
		MatBits:    fl.matBits,

		TensorOff:    fl.tensorOff,
		TensorStride: fl.tensorStride,
		TensorWords:  fl.tensorArena.Raw(),
	}
	a.CellBounds = make([]float64, 0, 2*f.pdim*nn)
	for u, c := range fl.cells {
		r, ok := c.(*geom.Rect)
		if !ok {
			return nil, fmt.Errorf("core: node %d cell is %T, not a rectangle", u, c)
		}
		a.CellBounds = append(a.CellBounds, r.Lo...)
		a.CellBounds = append(a.CellBounds, r.Hi...)
	}
	return a, nil
}

// NewFrameworkFromFlat rebuilds a query-ready Framework from exported
// columns. The columns are untrusted (they typically come off disk): every
// structural invariant the query path relies on is checked up front, so a
// malformed image yields an error here rather than a panic mid-query.
// Checksums are the caller's concern (flatio verifies pages before this
// runs); this validation is about shape, not integrity.
//
// The arenas are aliased, not copied — see FlatArenas.
func NewFrameworkFromFlat(ds *dataset.Dataset, a *FlatArenas) (*Framework, error) {
	if err := checkDataset(ds); err != nil {
		return nil, err
	}
	if a.K < 2 || a.K > 64 {
		return nil, fmt.Errorf("core: flat image arity %d outside [2, 64]", a.K)
	}
	if a.NumObjects != ds.Len() {
		return nil, fmt.Errorf("core: flat image indexes %d objects, dataset has %d", a.NumObjects, ds.Len())
	}
	if a.PDim < 1 || a.PDim > 64 {
		return nil, fmt.Errorf("core: flat image point dimension %d outside [1, 64]", a.PDim)
	}
	var split spart.Splitter
	switch a.SplitterKind {
	case FlatSplitKD:
		split = &spart.KD{Dim: a.PDim}
	case FlatSplitBox:
		split = &spart.Box{Dim: a.PDim}
	default:
		return nil, fmt.Errorf("core: flat image splitter kind %d unknown", a.SplitterKind)
	}

	nn := len(a.Nu)
	if nn < 1 || nn > math.MaxInt32 {
		return nil, fmt.Errorf("core: flat image has %d nodes", nn)
	}
	n := a.NumObjects
	if len(a.L) != nn || len(a.ChildFirst) != nn || len(a.ChildCount) != nn ||
		len(a.RankLo) != nn || len(a.PivotCount) != nn ||
		len(a.TensorOff) != nn || len(a.TensorStride) != nn {
		return nil, fmt.Errorf("core: flat image skeleton columns disagree on node count")
	}
	if len(a.CellBounds) != 2*a.PDim*nn {
		return nil, fmt.Errorf("core: flat image carries %d cell bounds for %d nodes of dimension %d",
			len(a.CellBounds), nn, a.PDim)
	}
	if len(a.Coords) != n*a.PDim {
		return nil, fmt.Errorf("core: flat image carries %d coordinates for %d objects of dimension %d",
			len(a.Coords), n, a.PDim)
	}
	if len(a.RankIDs) != n {
		return nil, fmt.Errorf("core: flat image ranks %d objects, dataset has %d", len(a.RankIDs), n)
	}
	if err := checkStarts("large-keyword", a.LargeStart, nn, len(a.LargeKeys)); err != nil {
		return nil, err
	}
	if err := checkStarts("materialized-list", a.MatStart, nn, len(a.MatKeys)); err != nil {
		return nil, err
	}
	if len(a.LargeIdx) != len(a.LargeKeys) {
		return nil, fmt.Errorf("core: flat image has %d large indexes for %d large keys", len(a.LargeIdx), len(a.LargeKeys))
	}
	if len(a.MatLists) != len(a.MatKeys) {
		return nil, fmt.Errorf("core: flat image has %d list handles for %d materialized keys", len(a.MatLists), len(a.MatKeys))
	}

	// BFS layout invariant: dequeue order assigns each node's children the
	// next contiguous id block, so a single cursor must reproduce ChildFirst
	// exactly and land on the node count. This guarantees the "tree" is a
	// tree (acyclic, every node reachable exactly once from the root), which
	// the recursive traversals rely on to terminate.
	next := 1
	for u := 0; u < nn; u++ {
		if a.Nu[u] < 0 {
			return nil, fmt.Errorf("core: node %d has negative weight", u)
		}
		cc := int(a.ChildCount[u])
		if cc < 0 || int(a.ChildFirst[u]) != next {
			return nil, fmt.Errorf("core: node %d breaks the BFS child layout", u)
		}
		next += cc
		if next > nn {
			return nil, fmt.Errorf("core: node %d claims children past the node count", u)
		}
	}
	if next != nn {
		return nil, fmt.Errorf("core: flat image has %d nodes but the BFS layout covers %d", nn, next)
	}

	// Rank space. The column must be a permutation of the dataset ids: emit
	// translates through it and document probes index the dataset with it.
	seen := bits.NewDense(n)
	for r, id := range a.RankIDs {
		if id < 0 || int(id) >= n || seen.Get(int(id)) {
			return nil, fmt.Errorf("core: rank %d maps to id %d: the rank column is not a permutation of [0, %d)", r, id, n)
		}
		seen.Set(int(id))
	}
	// Intervals. A node's span is its pivots plus its children's spans
	// (children come after their parent in BFS order, so one backward pass
	// sums them); then, top down, the pivots take the first ranks of a node's
	// interval and the children's intervals follow in child order — disjoint
	// and tiling the parent's by construction of the sums.
	span := make([]int32, nn)
	for u := nn - 1; u >= 0; u-- {
		if a.PivotCount[u] < 0 {
			return nil, fmt.Errorf("core: node %d has a negative pivot count", u)
		}
		total := int64(a.PivotCount[u])
		for c, end := int(a.ChildFirst[u]), int(a.ChildFirst[u])+int(a.ChildCount[u]); c < end; c++ {
			total += int64(span[c])
		}
		if total > int64(n) {
			return nil, fmt.Errorf("core: node %d spans %d ranks of %d", u, total, n)
		}
		span[u] = int32(total)
	}
	if a.RankLo[0] != 0 || int(span[0]) != n {
		return nil, fmt.Errorf("core: root interval [%d, %d) is not [0, %d)", a.RankLo[0], int64(a.RankLo[0])+int64(span[0]), n)
	}
	for u := 0; u < nn; u++ {
		next := a.RankLo[u] + a.PivotCount[u]
		for c, end := int(a.ChildFirst[u]), int(a.ChildFirst[u])+int(a.ChildCount[u]); c < end; c++ {
			if a.RankLo[c] != next {
				return nil, fmt.Errorf("core: node %d interval starts at rank %d, want %d: child intervals must tile the parent's after its pivots", c, a.RankLo[c], next)
			}
			next += span[c]
		}
	}
	for j := 0; j < 2*a.PDim*nn; j += 2 * a.PDim {
		for d := 0; d < a.PDim; d++ {
			lo, hi := a.CellBounds[j+d], a.CellBounds[j+a.PDim+d]
			if !(lo <= hi) { // also rejects NaN
				return nil, fmt.Errorf("core: node %d cell is empty or NaN on dimension %d", j/(2*a.PDim), d)
			}
		}
	}

	for u := 0; u < nn; u++ {
		ls, le := a.LargeStart[u], a.LargeStart[u+1]
		if int(a.L[u]) != int(le-ls) {
			return nil, fmt.Errorf("core: node %d claims %d large keywords, carries %d", u, a.L[u], le-ls)
		}
		for i := ls; i < le; i++ {
			if i > ls && a.LargeKeys[i] <= a.LargeKeys[i-1] {
				return nil, fmt.Errorf("core: node %d large keywords not strictly increasing", u)
			}
			if a.LargeIdx[i] < 0 || a.LargeIdx[i] >= a.L[u] {
				return nil, fmt.Errorf("core: node %d large index %d outside [0, %d)", u, a.LargeIdx[i], a.L[u])
			}
		}
		ms, me := a.MatStart[u], a.MatStart[u+1]
		for i := ms; i < me; i++ {
			if i > ms && a.MatKeys[i] <= a.MatKeys[i-1] {
				return nil, fmt.Errorf("core: node %d materialized keywords not strictly increasing", u)
			}
			var err error
			switch l := a.MatLists[i]; l.Rep {
			case ListRanks:
				err = checkRanks(a.MatRanks, l, a.RankLo[u], a.RankLo[u]+span[u])
			case ListBitmap:
				err = checkBitmap(a.MatBits, l, int(span[u]))
			default:
				err = fmt.Errorf("representation tag %d unknown", l.Rep)
			}
			if err != nil {
				return nil, fmt.Errorf("%w: node %d list %d: %v", codec.ErrCorrupt, u, i, err)
			}
		}

		// Tensor geometry: internal nodes carry one stride-sized bit array
		// per child; leaves carry nothing. The stride must be exactly
		// ceil(L^k / 64) — tensorGet computes bit addresses from it.
		off, stride, cc := a.TensorOff[u], a.TensorStride[u], int64(a.ChildCount[u])
		if cc == 0 {
			if off != 0 || stride != 0 {
				return nil, fmt.Errorf("core: leaf node %d carries a tensor", u)
			}
			continue
		}
		want, ok := tensorWordsChecked(int64(a.L[u]), a.K)
		if !ok {
			return nil, fmt.Errorf("core: node %d tensor exceeds the sanity bound", u)
		}
		if stride != want {
			return nil, fmt.Errorf("core: node %d tensor stride %d, want %d", u, stride, want)
		}
		if off < 0 || off > int64(len(a.TensorWords)) {
			return nil, fmt.Errorf("core: node %d tensor offset %d outside the arena", u, off)
		}
		if stride > 0 && cc > (int64(len(a.TensorWords))-off)/stride {
			return nil, fmt.Errorf("core: node %d tensors overrun the arena", u)
		}
	}

	fl := flatLayout{
		cells:        make([]spart.Cell, nn),
		nu:           a.Nu,
		l:            a.L,
		childFirst:   a.ChildFirst,
		childCount:   a.ChildCount,
		rankLo:       a.RankLo,
		rankSpan:     span,
		pivotCount:   a.PivotCount,
		largeStart:   a.LargeStart,
		largeKeys:    a.LargeKeys,
		largeIdx:     a.LargeIdx,
		matStart:     a.MatStart,
		matKeys:      a.MatKeys,
		matLists:     a.MatLists,
		matRanks:     a.MatRanks,
		matBits:      a.MatBits,
		tensorOff:    a.TensorOff,
		tensorStride: a.TensorStride,
		tensorArena:  bits.ArenaFromWords(a.TensorWords),
	}
	for u := 0; u < nn; u++ {
		fl.cells[u] = &geom.Rect{
			Lo: a.CellBounds[2*a.PDim*u : 2*a.PDim*u+a.PDim],
			Hi: a.CellBounds[2*a.PDim*u+a.PDim : 2*a.PDim*(u+1)],
		}
	}
	f := &Framework{ds: ds, k: a.K, split: split, ids: a.RankIDs, coords: a.Coords, pdim: a.PDim, flatLayout: fl, leafSize: 8}
	f.accountSpace()
	f.countRootDF()
	return f, nil
}

// checkRanks validates a sparse list handle at a node whose interval is
// [lo, hi): N ranks inside the arena, strictly ascending — the stop-node
// intersection gallops and leapfrogs on that order — and all of the interval,
// since a candidate is tested against the node's bitmaps at bit rank-lo.
func checkRanks(arena []int32, l FlatList, lo, hi int32) error {
	if l.Start < 0 || l.N < 0 || int64(l.Start)+int64(l.N) > int64(len(arena)) {
		return fmt.Errorf("ranks [%d, %d+%d) outside the arena of %d", l.Start, l.Start, l.N, len(arena))
	}
	prev := lo - 1
	for _, r := range arena[l.Start : l.Start+l.N] {
		if r <= prev || r >= hi {
			return fmt.Errorf("rank %d after %d is not ascending inside [%d, %d)", r, prev, lo, hi)
		}
		prev = r
	}
	return nil
}

// checkBitmap validates a bitmap list handle over an interval of span ranks:
// exactly bitmapWords(span) words inside the arena, no bit set past the
// interval, and as many bits set as the handle claims entries.
func checkBitmap(arena []uint64, l FlatList, span int) error {
	nw := bitmapWords(span)
	if l.Start < 0 || int(l.Start) > len(arena)-nw {
		return fmt.Errorf("bitmap words [%d, %d) outside the arena of %d", l.Start, int(l.Start)+nw, len(arena))
	}
	words := arena[l.Start : int(l.Start)+nw]
	if tail := span & 63; tail != 0 && words[nw-1]>>tail != 0 {
		return fmt.Errorf("bitmap has bits set past its %d-rank interval", span)
	}
	pop := 0
	for _, w := range words {
		pop += mbits.OnesCount64(w)
	}
	if pop != int(l.N) {
		return fmt.Errorf("bitmap holds %d ranks, handle claims %d", pop, l.N)
	}
	return nil
}

// checkStarts validates one prefix-offset column: nn+1 entries running
// monotonically from 0 to the payload length.
func checkStarts(what string, starts []int32, nn, payload int) error {
	if len(starts) != nn+1 {
		return fmt.Errorf("core: flat image %s offsets have %d entries for %d nodes", what, len(starts), nn)
	}
	if starts[0] != 0 || int(starts[nn]) != payload {
		return fmt.Errorf("core: flat image %s offsets span [%d, %d], payload is %d", what, starts[0], starts[nn], payload)
	}
	for i := 0; i < nn; i++ {
		if starts[i] > starts[i+1] {
			return fmt.Errorf("core: flat image %s offsets decrease at node %d", what, i)
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

// NewORPKWFromParts assembles an ORPKW around a reconstructed framework and
// rank space — the open path for paged flat images (internal/flatio). The
// framework must have been built (or rebuilt) over ds's rank-space points.
func NewORPKWFromParts(ds *dataset.Dataset, rs *dataset.RankSpace, fw *Framework, opts ...BuildOption) (*ORPKW, error) {
	o := resolveOpts(opts)
	if fw == nil || rs == nil {
		return nil, fmt.Errorf("core: ORPKW parts incomplete")
	}
	if fw.Dataset() != ds {
		return nil, fmt.Errorf("core: framework was built over a different dataset")
	}
	if rs.Dim() != ds.Dim() || fw.PointDim() != ds.Dim() {
		return nil, fmt.Errorf("core: rank space dim %d, framework dim %d, dataset dim %d disagree",
			rs.Dim(), fw.PointDim(), ds.Dim())
	}
	ix := &ORPKW{ds: ds, rs: rs, fw: fw, fam: o.famFor(famORPKW), tracer: o.Tracer}
	ix.fw.space.AuxWords += rs.SpaceWords()
	return ix, nil
}

// NewSPKWFromParts assembles an SPKW around a reconstructed framework — the
// open path for paged flat images (internal/flatio).
func NewSPKWFromParts(ds *dataset.Dataset, fw *Framework, opts ...BuildOption) (*SPKW, error) {
	o := resolveOpts(opts)
	if fw == nil {
		return nil, fmt.Errorf("core: SPKW parts incomplete")
	}
	if fw.Dataset() != ds {
		return nil, fmt.Errorf("core: framework was built over a different dataset")
	}
	return &SPKW{ds: ds, fw: fw, fam: o.famFor(famLCKW), tracer: o.Tracer}, nil
}
