package core

import (
	"math"

	"kwsc/internal/dataset"
)

// The paper's cost formulas as work-unit estimates: EstimateWork prices a
// query from an index's root so a serving layer can tell a leg cheaper than
// one goroutine wake-up from one that deserves a core.

// OutEstimate accumulates the classic independence estimate of the output
// size, keyword by keyword:
//
//	estOUT = min(min_w |S_w|, |D| * prod_w (|S_w|/|D|) * sel(q))
//
// It prices EstimateWork's descent and benchkw's planner.
type OutEstimate struct {
	n, minDF, indep float64
}

// NewOutEstimate starts the estimate for a set of the given number of
// objects, before any keyword is added.
func NewOutEstimate(objects int) OutEstimate {
	return OutEstimate{n: float64(objects), minDF: math.MaxFloat64, indep: float64(objects)}
}

// Add folds in one query keyword's document frequency |S_w|.
func (e *OutEstimate) Add(df float64) {
	e.minDF = math.Min(e.minDF, df)
	e.indep *= df / e.n
}

// MinDF returns min_w |S_w| over the keywords added.
func (e *OutEstimate) MinDF() float64 { return e.minDF }

// Out returns estOUT for a region holding the fraction sel of the objects.
func (e *OutEstimate) Out(sel float64) float64 { return math.Min(e.minDF, e.indep*sel) }

// Theorem1Cost is Theorem 1's query bound N^{1-1/k} * (1 + OUT^{1/k}) with
// its constant taken as 1: the estimate EstimateWork prices a descent at, the
// ceiling internal/table1 holds the Theorem 1 rows to, and the framework's
// price in benchkw's planner.
func Theorem1Cost(n float64, k int, out float64) float64 {
	return pow(n, 1-1/float64(k)) * (1 + math.Pow(out, 1/float64(k)))
}

// EstimateWork bounds the work units (QueryStats.Ops) a query for ws costs,
// from the root node alone: O(k) lookups in structures the index already
// holds, no allocation, no traversal. The root classifies every query keyword
// (Section 3.2). If one is small there, the root is the query's stop node and
// intersectSmall's accounting gives an exact upper bound: 1 + the shortest
// materialized list when some list is sparse (the drive list's candidates),
// and 1 + the bitmap's words + the shortest list when every list is a bitmap
// (the words ANDed, then at most that many set bits). A crossing sparse root
// clips its cells by the rectangle first and takes candidates only from the
// cells that meet it (the cells are node visits, not work units), so the
// bound still holds and is loose by the rectangle's share. If all are large the
// traversal descends, and the estimate is the paper's bound with the
// independence estimate of OUT over the root's keyword counts — geometry is
// ignored (sel = 1), which errs towards "heavy". A keyword tuple of the wrong
// arity is rejected before any work: 0.
func (f *Framework) EstimateWork(ws []dataset.Keyword) int64 {
	if len(ws) != f.k {
		return 0
	}
	if f.childCount[0] == 0 {
		return 1 + int64(len(f.ids))
	}
	shortest, allDense := int64(-1), true
	est := NewOutEstimate(f.ds.Len())
	for _, w := range ws {
		li, large, mi := f.rootLookup(w)
		if large {
			est.Add(float64(f.rootDF[li]))
			continue
		}
		// A small keyword's list: its length and representation (a keyword
		// that occurs nowhere has none: an empty sparse list).
		var l FlatList
		if mi >= 0 {
			l = f.matLists[mi]
		}
		if allDense = allDense && l.Rep == ListBitmap; shortest < 0 || int64(l.N) < shortest {
			shortest = int64(l.N)
		}
	}
	switch {
	case shortest < 0:
		return int64(Theorem1Cost(float64(f.nu[0]), f.k, est.Out(1)))
	case allDense:
		return 1 + int64(bitmapWords(len(f.ids))) + shortest
	default:
		return 1 + shortest
	}
}

// countRootDF fills rootDF — the root's per-large-keyword object counts that
// EstimateWork reads — for a framework rebuilt from a flat image, which
// carries the root's large keywords but not their counts. Every document word
// is looked up, so the lookups go through a directory over the root's large
// keywords whatever the family, derived here for the count alone.
func (f *Framework) countRootDF() {
	f.rootDF = make([]int32, f.l[0])
	if f.l[0] == 0 {
		return
	}
	run := f.largeKeys[f.largeStart[0]:f.largeStart[1]]
	dir := dataset.NewDirectory(run)
	for i := 0; i < f.ds.Len(); i++ {
		for _, w := range f.ds.Doc(int32(i)) {
			from, to := dir.Span(w, len(run))
			if at := keyAt(run, int32(from), int32(to), w); at >= 0 {
				f.rootDF[f.largeIdx[f.largeStart[0]+at]]++
			}
		}
	}
}

// EstimateWork is Framework.EstimateWork on the underlying index.
func (ix *ORPKW) EstimateWork(ws []dataset.Keyword) int64 { return ix.fw.EstimateWork(ws) }

// EstimateWork for the dimension-reduction index has no single root to read:
// it is Theorem 2's bound at the worst case OUT = |D|, so any corpus of size
// counts as heavy.
func (ix *ORPKWHigh) EstimateWork(ws []dataset.Keyword) int64 {
	if len(ws) != ix.k {
		return 0
	}
	return int64(Theorem1Cost(float64(ix.ds.N()), ix.k, float64(ix.ds.Len())))
}

// EstimateWork of the paged base is the length of the shortest of the k
// lists, read from the resident vocabulary: the drive list, of which
// PagedBase.Query charges the ranks inside the runs the rectangle keeps. The
// rectangle is not an argument here, so the estimate is what a rectangle over
// every rank costs; a small one costs a fraction of it (EXPERIMENTS.md,
// "Paged base").
func (b *PagedBase) EstimateWork(ws []dataset.Keyword) int64 {
	if len(ws) != b.k {
		return 0
	}
	shortest := int64(math.MaxInt64)
	for _, w := range ws {
		l, ok := b.listFor(w)
		if !ok {
			return 0
		}
		shortest = min(shortest, int64(l.N))
	}
	return shortest
}

// EstimateWork bounds the work units of a query for ws against the currently
// published state, summing its parts the way queryState visits them: one unit
// per buffered entry, the base, then every bucket's root estimate. It is
// lock-free and allocation-free, and it builds nothing: a bucket no read has
// indexed yet is priced from its entry count alone, at Theorem 1's bound with
// OUT = every entry (as ORPKWHigh.EstimateWork prices its index), which marks
// a leg that will pay a build as heavy; the leg that reads the bucket builds
// it. A bucket whose build failed adds nothing: the query stops there with
// the build's error. A keyword tuple of the wrong arity estimates 0.
func (d *DynamicORPKW) EstimateWork(ws []dataset.Keyword) int64 {
	if len(ws) != d.k {
		return 0
	}
	sn := d.state.Load()
	est := int64(len(sn.buffer))
	if sn.base != nil {
		est += sn.base.EstimateWork(ws)
	}
	for _, b := range sn.buckets {
		switch {
		case b == nil:
		case !b.built.Load():
			est += int64(Theorem1Cost(float64(b.objs.N()), d.k, float64(len(b.handles))))
		case b.err == nil:
			est += b.ix.EstimateWork(ws)
		}
	}
	return est
}
