package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"kwsc/internal/bitpack"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/spart"
)

// QueryOpts tunes a framework query.
type QueryOpts struct {
	// Limit stops the query after reporting this many objects (0 = all).
	// The L∞NN-KW and L2NN-KW searches (Corollaries 4 and 7) use it to
	// implement the "terminate manually once t results are found" step.
	Limit int
	// Budget stops the query after this many work units (pivot checks,
	// materialized-list scans and node visits; 0 = unlimited). It realizes
	// the paper's manual-termination argument for emptiness queries
	// (footnote 4). Exhaustion sets QueryStats.BudgetHit without an error;
	// for the error-surfacing wall-clock and visit bounds of the serving
	// path, use Policy.
	Budget int64
	// Policy bounds the query in wall-clock terms (deadline, node-visit
	// budget, cancellation). The zero value imposes nothing and keeps the
	// query path allocation-free; violations surface as typed errors
	// (ErrDeadline, ErrBudget, ErrCanceled) alongside partial results.
	Policy ExecPolicy
}

// QueryStats instruments one query; Ops is the machine-independent cost in
// work units, which is what the complexity experiments fit exponents on.
type QueryStats struct {
	NodesVisited  int
	CoveredNodes  int   // visited nodes with cell fully covered by q
	CrossingNodes int   // visited nodes with cell crossing q's boundary
	PivotChecks   int64 // objects examined in pivot sets
	MatScanned    int64 // objects examined in materialized small lists
	Reported      int
	Ops           int64
	Truncated     bool // stopped early: Limit, MaxResults, or any policy stop
	BudgetHit     bool // stopped by Budget

	// Resilience instrumentation (ExecPolicy and degraded-mode outcomes).
	DeadlineHit   bool // stopped by Policy.Deadline/Timeout
	NodeBudgetHit bool // stopped by Policy.NodeBudget
	Canceled      bool // stopped by Policy.Done
	Fallback      bool // answered by the degraded-mode baseline

	// Dimension-reduction instrumentation (Section 4 / Figure 2): counts of
	// type-1 nodes (sigma(u) contained in q's x-range; answered by the
	// secondary structure) and type-2 nodes (answered by pivot scans).
	Type1Nodes int
	Type2Nodes int
}

// add merges st2 into st (used when a query spans secondary structures).
func (st *QueryStats) add(o QueryStats) {
	st.NodesVisited += o.NodesVisited
	st.CoveredNodes += o.CoveredNodes
	st.CrossingNodes += o.CrossingNodes
	st.PivotChecks += o.PivotChecks
	st.MatScanned += o.MatScanned
	st.Reported += o.Reported
	st.Ops += o.Ops
	st.Truncated = st.Truncated || o.Truncated
	st.BudgetHit = st.BudgetHit || o.BudgetHit
	st.DeadlineHit = st.DeadlineHit || o.DeadlineHit
	st.NodeBudgetHit = st.NodeBudgetHit || o.NodeBudgetHit
	st.Canceled = st.Canceled || o.Canceled
	st.Fallback = st.Fallback || o.Fallback
	st.Type1Nodes += o.Type1Nodes
	st.Type2Nodes += o.Type2Nodes
}

// Query answers a region-plus-keywords query (Section 3.3's algorithm):
// report every object whose point lies in q and whose document contains all
// k keywords. The keyword tuple must contain exactly the arity k the index
// was built with, with no duplicates.
func (f *Framework) Query(q geom.Region, ws []dataset.Keyword, opts QueryOpts, report func(int32)) (st QueryStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError("Framework.Query", r, echoRegion(q, ws))
		}
	}()
	if err := f.checkQuery(ws); err != nil {
		return QueryStats{}, err
	}
	opts = opts.normalized()
	qc := getQctx()
	qc.f, qc.q, qc.ws, qc.opts, qc.report = f, q, ws, opts, report
	qc.pst = newPolState(opts.Policy)
	f.run(qc)
	st, err = qc.st, qc.stopErr
	putQctx(qc)
	return st, err
}

// Collect is Query returning a slice of object ids. The slice is freshly
// allocated and owned by the caller; use CollectInto to amortize it.
func (f *Framework) Collect(q geom.Region, ws []dataset.Keyword, opts QueryOpts) ([]int32, QueryStats, error) {
	return f.CollectInto(q, ws, opts, nil)
}

// CollectInto is Collect appending into buf (reusing its capacity, like
// append). With a warmed buffer and a pooled context the steady-state query
// path performs zero heap allocations. The returned slice aliases buf, never
// pooled scratch, so the caller owns it outright; with a nil buf the ids
// accumulate in pooled scratch and are copied out in one exact-size
// allocation.
func (f *Framework) CollectInto(q geom.Region, ws []dataset.Keyword, opts QueryOpts, buf []int32) (out []int32, st QueryStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, newPanicError("Framework.CollectInto", r, echoRegion(q, ws))
		}
	}()
	if err := f.checkQuery(ws); err != nil {
		return nil, QueryStats{}, err
	}
	opts = opts.normalized()
	qc := getQctx()
	qc.f, qc.q, qc.ws, qc.opts = f, q, ws, opts
	qc.pst = newPolState(opts.Policy)
	qc.collecting = true
	scratch := buf == nil
	if scratch {
		qc.out = qc.res[:0]
	} else {
		qc.out = buf[:0]
	}
	f.run(qc)
	out, st, err = qc.out, qc.st, qc.stopErr
	if scratch {
		qc.res = out[:0] // keep the grown scratch for the next query
		if len(out) > 0 {
			out = append([]int32(nil), out...)
		} else {
			out = nil
		}
	}
	putQctx(qc) // clears qc.out: the pool never retains the returned slice
	return out, st, err
}

func (f *Framework) checkQuery(ws []dataset.Keyword) error {
	if len(ws) != f.k {
		return fmt.Errorf("%w: query carries %d keywords but the index was built for k=%d", ErrInvalidQuery, len(ws), f.k)
	}
	if err := dataset.ValidateKeywords(ws); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidQuery, err)
	}
	return nil
}

func (f *Framework) run(qc *qctx) {
	if cap(qc.sorted) < f.k { // the four k-sized scratches grow together
		qc.sorted = make([]int32, 0, f.k)
		qc.probe = make([]dataset.Keyword, 0, f.k)
		qc.cur = make([]bitpack.Cursor, f.k)
		qc.bm = make([][]uint64, f.k)
	}
	if r, ok := qc.q.(*geom.Rect); ok && len(r.Lo) == f.pdim {
		qc.qLo, qc.qHi = r.Lo, r.Hi
	}
	if rel := f.split.Relate(f.cells[0], qc.q); rel != geom.Disjoint {
		qc.visit(0, rel)
	}
}

// qctx is the per-query traversal state. Contexts are pooled: the sorted
// scratch buffer survives between queries, so a warmed steady-state query
// allocates nothing. All reference fields are cleared before the context
// returns to the pool (putQctx) — pooled memory must never alias anything a
// caller still holds.
type qctx struct {
	f          *Framework
	q          geom.Region
	ws         []dataset.Keyword
	opts       QueryOpts
	report     func(int32)
	collecting bool
	out        []int32
	st         QueryStats
	done       bool
	pst        polState // ExecPolicy progress (zero when no policy is set)
	stopErr    error    // typed policy error that ended the traversal
	sorted     []int32  // scratch for tensor index
	res        []int32  // scratch accumulator for buf-less CollectInto

	// Stop-node scratch (intersectSmall): one cursor per keyword whose list
	// at the node is sparse, one bitmap per keyword whose list is dense, and
	// the keywords still large there, which candidates are probed for. All
	// live on the pooled context, so a query allocates none of them.
	cur   []bitpack.Cursor
	bm    [][]uint64
	probe []dataset.Keyword

	// Clip scratch (clip): the ascending rank runs a sparse stop node's
	// leapfrog is confined to, and how many more cells its descent may relate.
	runs     []rankRun
	clipLeft int64

	// Rect fast path: when q is a *geom.Rect, run caches its bounds so
	// checkAndEmit tests containment with inlined comparisons over the coords
	// column instead of an interface call.
	qLo, qHi []float64
}

var qctxPool = sync.Pool{New: func() any { return new(qctx) }}

func getQctx() *qctx { return qctxPool.Get().(*qctx) }

func putQctx(qc *qctx) {
	for i := range qc.cur {
		qc.cur[i].Release()
	}
	clear(qc.bm)
	*qc = qctx{sorted: qc.sorted[:0], res: qc.res[:0], cur: qc.cur, bm: qc.bm, probe: qc.probe[:0], runs: qc.runs[:0]}
	qctxPool.Put(qc)
}

func (qc *qctx) stop() bool {
	if qc.done {
		return true
	}
	if qc.opts.Limit > 0 && qc.st.Reported >= qc.opts.Limit {
		qc.st.Truncated = true
		qc.done = true
		return true
	}
	if qc.opts.Budget > 0 && qc.st.Ops > qc.opts.Budget {
		qc.st.BudgetHit = true
		qc.done = true
		return true
	}
	if qc.pst.active {
		if err := qc.pst.check(&qc.st, int64(qc.st.NodesVisited)); err != nil {
			qc.stopErr = err
			qc.done = true
			return true
		}
	}
	return false
}

func (qc *qctx) emit(id int32) {
	if qc.collecting {
		qc.out = append(qc.out, id)
	} else {
		qc.report(id)
	}
	qc.st.Reported++
}

// checkAndEmit examines one candidate, named by its rank: the object is
// reported when its point lies in q and its document holds every keyword of
// ws — all of qc.ws for a pivot, only the keywords no list has vouched for at
// a stop node. For rectangle queries (qLo/qHi cached by run) the exact
// comparisons of Rect.ContainsPoint are inlined in place of an interface
// call; results are identical either way.
func (qc *qctx) checkAndEmit(r int32, covered bool, ws []dataset.Keyword) {
	f := qc.f
	if !covered {
		if base := int(r) * f.pdim; qc.qLo == nil {
			if !qc.q.ContainsPoint(f.coords[base : base+f.pdim]) {
				return
			}
		} else {
			for j, lo := range qc.qLo {
				if c := f.coords[base+j]; c < lo || c > qc.qHi[j] {
					return
				}
			}
		}
	}
	if id := f.ids[r]; f.ds.HasAll(id, ws) {
		qc.emit(id)
	}
}

// scanPivots examines a pivot set — the ranks [lo, hi) — reporting false when
// the query stopped.
func (qc *qctx) scanPivots(lo, hi int32, covered bool) bool {
	for r := lo; r < hi; r++ {
		qc.st.PivotChecks++
		qc.st.Ops++
		qc.checkAndEmit(r, covered, qc.ws)
		if qc.stop() {
			return false
		}
	}
	return true
}

// intersectSmall answers a stop node — the first node of the descent at which
// some query keyword is small (Section 3.3). Every query keyword was large at
// all proper ancestors, so each keyword small here has its list D_u^act(w)
// materialized here: qc.cur[:ms] walk the lists stored as ascending ranks,
// qc.bm[:md] are the lists stored as bitmaps over u's interval, which starts
// at rank rankLo[u] (ms+md >= 1), and qc.probe holds the keywords still
// large. The paper scans one small list and tests every entry; this
// intersects all of them, and only a rank in every list — the membership
// proof for the small keywords — pays the region test and a hash probe for
// the large ones.
//
// If every list is a bitmap they are ANDed a word — 64 ranks — at a time and
// the set bits of the result are the candidates; with one bitmap that is the
// paper's scan, bit by bit. Otherwise the shortest sparse list drives (a
// sparse list is shorter than any dense one at the same node), bitmaps answer
// membership with one bit test, and the other sparse lists leapfrog: a
// candidate they leap over names the next rank worth asking the driver about.
//
// The leapfrog runs over ascending runs of the interval. At a covered node, or
// one whose drive list is shorter than clipMinDrive, the one run is the whole
// interval. At a crossing node with a longer drive list, clip first descends
// the node's own cells by the rectangle, before any list is read, and the
// drive list seeks to the start of each run it kept: ranks in cells that miss
// q are never candidates, and ranks in covered cells skip the region test.
//
// MatScanned and Ops count one unit per bitmap word ANDed plus one per
// candidate examined — a set bit of the AND, or a rank taken from the drive
// list; bit tests, like ranks leapt over, are free. A dense list of n ranks
// has at most n/2 + 1 words (denseList), so either way the node costs
// O(N_u^{1-1/k}), and 1 + the drive list bounds a sparse node's Ops. The
// cells clip relates are node visits (NodesVisited, CoveredNodes,
// CrossingNodes, so NodeBudget), not work units, as in PagedBase.Query. A
// stop check follows the clip, every word and every candidate. Ranks are
// emitted in ascending order: leaf order.
func (qc *qctx) intersectSmall(u int32, ms, md int, covered bool) {
	f := qc.f
	lo := f.rankLo[u]
	bm := qc.bm[:md]
	if ms == 0 {
		for wi, w := range bm[0] {
			for _, b := range bm[1:] {
				w &= b[wi]
			}
			qc.st.MatScanned++
			qc.st.Ops++
			for base := lo + int32(wi)<<6; w != 0; w &= w - 1 {
				qc.st.MatScanned++
				qc.st.Ops++
				qc.checkAndEmit(base+int32(bits.TrailingZeros64(w)), covered, qc.probe)
				if qc.stop() {
					return
				}
			}
			if qc.stop() {
				return
			}
		}
		return
	}
	cur := qc.cur[:ms]
	d := 0
	for j := 1; j < ms; j++ {
		if cur[j].Len() < cur[d].Len() {
			d = j
		}
	}
	drive := &cur[d]
	qc.runs = qc.runs[:0]
	if shortest := int64(drive.Len()); !covered && shortest >= clipMinDrive {
		qc.clipLeft = shortest
		qc.clip(u, int64(f.rankSpan[u]), shortest)
		if qc.stop() {
			return
		}
	} else {
		qc.runs = append(qc.runs, rankRun{lo, lo + f.rankSpan[u], covered})
	}
	// target is the lowest rank that can still be in the intersection. It only
	// rises, across runs too, which is what Seek requires; a run a list has
	// already leapt past is skipped without a seek.
	target := int32(0)
	for _, run := range qc.runs {
		if target >= run.hi {
			continue
		}
		target = max(target, run.lo)
		for target < run.hi {
			r, ok := drive.Seek(target)
			if !ok {
				return
			}
			if r >= run.hi {
				target = r
				break
			}
			qc.st.MatScanned++
			qc.st.Ops++
			target = r + 1
			hit, more := true, true
			for _, b := range bm {
				if off := uint32(r - lo); b[off>>6]>>(off&63)&1 == 0 {
					hit = false
					break
				}
			}
			for j := 0; hit && j < ms; j++ {
				if j == d {
					continue
				}
				v, ok := cur[j].Seek(r)
				if !ok {
					hit, more = false, false // a list ran out: nothing further can match
				} else if v != r {
					hit, target = false, v
				}
			}
			if hit {
				qc.checkAndEmit(r, run.covered, qc.probe)
			}
			if qc.stop() || !more {
				return
			}
		}
	}
}

// rankRun is a stretch [lo, hi) of a stop node's interval that the leapfrog
// scans; a covered run lies in cells inside q and skips the region test.
type rankRun struct {
	lo, hi  int32
	covered bool
}

// clipMinDrive is the fewest drive-list ranks a crossing cell should hold —
// its share of the stop node's span times the drive list's length — for clip
// to relate its children rather than keep it whole: below that, a Relate per
// child costs more than the region tests it can save. It is a variable only so
// that tests can raise it past every list and compare against the unclipped
// scan.
var clipMinDrive int64 = 4

// clip appends to qc.runs, in rank order, the parts of crossing node v's
// interval worth scanning: v's pivots, then per child its whole interval if
// the child's cell is covered by q (marked covered) or crosses q and holds
// too few drive ranks to split (span_c · shortest < clipMinDrive · span, span
// the stop node's), the child's own clip if it crosses and holds enough, and
// nothing if it misses q. The descent relates at most shortest cells; once
// qc.clipLeft runs out, every child left joins whole and uncovered.
func (qc *qctx) clip(v int32, span, shortest int64) {
	f := qc.f
	lo := f.rankLo[v]
	qc.addRun(lo, lo+f.pivotCount[v], false)
	for c, end := f.childFirst[v], f.childFirst[v]+f.childCount[v]; c < end; c++ {
		clo, chi := f.rankLo[c], f.rankLo[c]+f.rankSpan[c]
		if qc.clipLeft == 0 {
			qc.addRun(clo, chi, false)
			continue
		}
		qc.clipLeft--
		rel := f.split.Relate(f.cells[c], qc.q)
		if rel == geom.Disjoint {
			continue
		}
		qc.st.NodesVisited++
		if rel == geom.Covered {
			qc.st.CoveredNodes++
			qc.addRun(clo, chi, true)
			continue
		}
		qc.st.CrossingNodes++
		if f.childCount[c] > 0 && int64(f.rankSpan[c])*shortest >= clipMinDrive*span {
			qc.clip(c, span, shortest)
		} else {
			qc.addRun(clo, chi, false)
		}
	}
}

// addRun appends the ranks [lo, hi) to qc.runs, extending the last run when
// the two touch and agree on covered.
func (qc *qctx) addRun(lo, hi int32, covered bool) {
	if lo == hi {
		return
	}
	if n := len(qc.runs); n > 0 && qc.runs[n-1].hi == lo && qc.runs[n-1].covered == covered {
		qc.runs[n-1].hi = hi
		return
	}
	qc.runs = append(qc.runs, rankRun{lo, hi, covered})
}

func (qc *qctx) visit(u int32, rel geom.Relation) {
	if qc.stop() {
		return
	}
	f := qc.f
	failpoint(FPFrameworkVisit)
	qc.st.NodesVisited++
	qc.st.Ops++
	covered := rel == geom.Covered
	if covered {
		qc.st.CoveredNodes++
	} else {
		qc.st.CrossingNodes++
	}

	lo := f.rankLo[u]
	if f.childCount[u] == 0 {
		// Leaf: the pivot set is the whole active set.
		qc.scanPivots(lo, lo+f.pivotCount[u], covered)
		return
	}

	// Use T_u to sort the query keywords, in O(k) time, into those large at u
	// (tensor axis index into qc.sorted, keyword into qc.probe) and those
	// small at u (a cursor or a bitmap on the materialized list D_u^act(w)).
	// If any is small the node is answered from the lists and the subtree is
	// never descended; qualifying pivots of u are contained in every such
	// list, so they need no separate scan. A small keyword without a list, or
	// with an empty one, occurs nowhere below u and ends the node at once.
	s, probe, ms, md := qc.sorted[:0], qc.probe[:0], 0, 0
	for _, w := range qc.ws {
		if li, ok := f.largeLookup(u, w); ok {
			s, probe = append(s, li), append(probe, w)
			continue
		}
		mi := f.matLookup(u, w)
		if mi < 0 {
			return
		}
		switch l := f.matLists[mi]; {
		case l.N == 0:
			return
		case l.Rep == ListBitmap:
			qc.bm[md] = f.matBits[l.Start : int(l.Start)+bitmapWords(int(f.rankSpan[u]))]
			md++
		default:
			qc.cur[ms].ResetRaw(f.matRanks[l.Start : l.Start+l.N])
			ms++
		}
	}
	if ms+md > 0 {
		qc.probe = probe
		qc.intersectSmall(u, ms, md, covered)
		return
	}

	// All keywords large: examine the pivots, then descend into children
	// whose non-emptiness bit is set and whose cell meets q.
	if !qc.scanPivots(lo, lo+f.pivotCount[u], covered) {
		return
	}
	sortInt32s(s)
	lin := tensorIndex(s, int(f.l[u]))
	first, count := f.childFirst[u], f.childCount[u]
	for ci := int32(0); ci < count; ci++ {
		if !f.tensorGet(u, ci, lin) {
			continue
		}
		child := first + ci
		crel := geom.Covered
		if !covered {
			crel = f.split.Relate(f.cells[child], qc.q)
			if crel == geom.Disjoint {
				continue
			}
		}
		qc.visit(child, crel)
		if qc.done {
			return
		}
	}
}

// CrossingCost replays a query and returns the crossing-sensitivity of
// expression (7): the number of internal crossing nodes plus
// sum N_z^{1-1/k} over the crossing leaves of the query tree, where a
// "leaf of T_qry" is any visited node at which the descent stopped.
// It is used by the F1/E6b experiments.
func (f *Framework) CrossingCost(q geom.Region, ws []dataset.Keyword) (float64, error) {
	if err := dataset.ValidateKeywords(ws); err != nil {
		return 0, err
	}
	var cost float64
	exp := 1 - 1/float64(f.k)
	var rec func(u int32)
	rec = func(u int32) {
		// Does the descent stop here?
		stopsHere := f.childCount[u] == 0
		if !stopsHere {
			for _, w := range ws {
				if _, ok := f.largeLookup(u, w); !ok {
					stopsHere = true
					break
				}
			}
		}
		if stopsHere {
			cost += pow(float64(f.nu[u]), exp)
			return
		}
		cost++
		s := make([]int32, 0, f.k)
		for _, w := range ws {
			li, _ := f.largeLookup(u, w)
			s = append(s, li)
		}
		sortInt32s(s)
		lin := tensorIndex(s, int(f.l[u]))
		first, count := f.childFirst[u], f.childCount[u]
		for ci := int32(0); ci < count; ci++ {
			if !f.tensorGet(u, ci, lin) {
				continue
			}
			if f.split.Relate(f.cells[first+ci], q) == geom.Crossing {
				rec(first + ci)
			}
		}
	}
	if f.split.Relate(f.cells[0], q) == geom.Crossing {
		rec(0)
	}
	return cost, nil
}

func pow(x, e float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, e)
}

var _ = spart.PivotChild
