package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"kwsc/internal/bitpack"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

// QueryOpts tunes a framework query.
type QueryOpts struct {
	// Limit stops the query after reporting this many objects (0 = all).
	// The L∞NN-KW and L2NN-KW searches (Corollaries 4 and 7) use it to
	// implement the "terminate manually once t results are found" step.
	Limit int
	// Policy bounds the query's work (deadline, work-unit budget,
	// cancellation). The zero value imposes nothing and keeps the query path
	// allocation-free; a stop surfaces as a typed error (ErrDeadline,
	// ErrBudget, ErrCanceled) alongside partial results.
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
	Truncated     bool // stopped early by Limit or the policy; the error names a policy stop
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
	qc := newQctx(ws, opts)
	qc.report = report
	f.run(qc, q)
	return qc.finish()
}

// CollectInto is Query returning the ids instead of reporting them. The
// result overwrites buf from index 0, reusing its capacity, and aliases buf,
// never pooled scratch, so the caller owns it outright; with a warmed buffer
// and a pooled context the steady-state query path performs zero heap
// allocations. With a nil buf the ids accumulate in pooled scratch and are
// copied out in one exact-size allocation.
func (f *Framework) CollectInto(q geom.Region, ws []dataset.Keyword, opts QueryOpts, buf []int32) (out []int32, st QueryStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, newPanicError("Framework.CollectInto", r, echoRegion(q, ws))
		}
	}()
	if err := f.checkQuery(ws); err != nil {
		return nil, QueryStats{}, err
	}
	qc := newQctx(ws, opts)
	qc.collectInto(buf)
	f.run(qc, q)
	return qc.finishCollect(buf == nil)
}

// newQctx takes a context from the pool for one query: its keywords, options
// and a policy state spanning everything the query traverses.
func newQctx(ws []dataset.Keyword, opts QueryOpts) *qctx {
	qc := qctxPool.Get().(*qctx)
	qc.ws, qc.opts = ws, opts
	qc.pst = newPolState(opts.Policy)
	return qc
}

// collectInto makes the query gather its ids instead of reporting them: into
// buf, or into pooled scratch when buf is nil.
func (qc *qctx) collectInto(buf []int32) {
	qc.collecting = true
	if buf == nil {
		qc.out = qc.res[:0]
	} else {
		qc.out = buf[:0]
	}
}

// finish returns a reporting query's outcome and the context to the pool.
func (qc *qctx) finish() (QueryStats, error) {
	st, err := qc.st, qc.stopErr
	putQctx(qc)
	return st, err
}

// finishCollect is finish for a collecting query; with scratch (a nil buf)
// the ids are copied out of pooled scratch, which keeps its growth.
func (qc *qctx) finishCollect(scratch bool) (out []int32, st QueryStats, err error) {
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

// run traverses f for region q from the root. Unlike at the ORPKW entry, a
// keyword absent from the root still costs the root's visit here, so the
// other families count their work as they always have.
func (f *Framework) run(qc *qctx, q geom.Region) {
	qc.enter(f, q)
	qc.resolveRoot()
	if rel := qc.relate(0); rel != geom.Disjoint {
		qc.visit(0, rel)
	}
}

// enter points qc at index f and region q, growing the k-sized scratches to
// f's arity: the start of one index part of a query, with the part's own
// stats and stop flag.
func (qc *qctx) enter(f *Framework, q geom.Region) {
	if cap(qc.sorted) < f.k { // the five k-sized scratches grow together
		qc.sorted = make([]int32, 0, f.k)
		qc.probe = make([]dataset.Keyword, 0, f.k)
		qc.cur = make([]bitpack.Cursor, f.k)
		qc.bm = make([][]uint64, f.k)
		qc.roots = make([]rootKey, f.k)
	}
	qc.f, qc.q, qc.st, qc.done = f, q, QueryStats{}, false
	qc.qLo, qc.qHi = nil, nil
	if r, ok := q.(*geom.Rect); ok && len(r.Lo) == f.pdim {
		qc.qLo, qc.qHi = r.Lo, r.Hi
	}
}

// rootKey is one query keyword as the root's T_u classifies it: its tensor
// axis index li when large there, otherwise its list mi (-1: none).
type rootKey struct {
	li, mi int32
	large  bool
}

// resolveRoot looks every query keyword up at the root of an internal-rooted
// qc.f, through the root's directories (rootLookup), into qc.roots, where
// visit reads them. It reports whether some object can hold them all: false
// when a keyword is neither large at the root nor has a non-empty list there.
// A leaf root has no T_u: nothing is looked up, and the answer is true.
func (qc *qctx) resolveRoot() bool {
	f := qc.f
	if f.childCount[0] == 0 {
		return true
	}
	holds := true
	for i, w := range qc.ws {
		r := &qc.roots[i]
		r.li, r.large, r.mi = f.rootLookup(w)
		holds = holds && (r.large || r.mi >= 0 && f.matLists[r.mi].N > 0)
	}
	return holds
}

// relate classifies q against node u. A rectangle against a kd tree's box is
// compared inline on the arena, as Rect.RelateRect compares; any other pair
// goes through Framework.relate.
func (qc *qctx) relate(u int32) geom.Relation {
	f := qc.f
	if qc.qLo == nil || f.boxes == nil {
		return f.relate(u, qc.q)
	}
	d := f.pdim
	box := f.boxes[2*d*int(u) : 2*d*(int(u)+1)]
	lo, hi := box[:d], box[d:]
	rel := geom.Covered
	for j, ql := range qc.qLo {
		qh := qc.qHi[j]
		if hi[j] < ql || lo[j] > qh {
			return geom.Disjoint
		}
		if lo[j] < ql || hi[j] > qh {
			rel = geom.Crossing
		}
	}
	return rel
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
	roots []rootKey // the root's lookups, by query keyword (resolveRoot)

	// Clip scratch (clip): the ascending rank runs a sparse stop node's
	// leapfrog is confined to, and how many more cells its descent may relate.
	runs     []rankRun
	clipLeft int64

	// Rect fast path: when q is a *geom.Rect, enter caches its bounds so
	// relate and checkAndEmit compare them inline against the box arena and
	// the rows' coordinates instead of through an interface call.
	qLo, qHi []float64

	// part is set while the context runs one Bentley–Saxe bucket of a
	// dynamic query.
	part dynPart
	// sub is the final two dimensions of a dimension-reduction query, which
	// its d = 2 secondaries run for (drTree.querySecondary).
	sub geom.Rect
}

var qctxPool = sync.Pool{New: func() any { return new(qctx) }}

func putQctx(qc *qctx) {
	for i := range qc.cur {
		qc.cur[i].Release()
	}
	clear(qc.bm)
	*qc = qctx{sorted: qc.sorted[:0], res: qc.res[:0], cur: qc.cur, bm: qc.bm, probe: qc.probe[:0], roots: qc.roots, runs: qc.runs[:0]}
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
	if qc.pst.active {
		if err := qc.pst.check(&qc.st, qc.st.Ops); err != nil {
			qc.stopErr = err
			qc.done = true
			return true
		}
	}
	return false
}

// emit reports one object. Inside a dynamic bucket, a tombstoned object is
// dropped and does not count toward Reported, so Limit counts live results.
func (qc *qctx) emit(id int32) {
	switch {
	case qc.part.b != nil:
		if !qc.part.emit(id) {
			return
		}
	case qc.collecting:
		qc.out = append(qc.out, id)
	default:
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
		if p := f.rows.Point(r); qc.qLo == nil {
			if !qc.q.ContainsPoint(p) {
				return
			}
		} else {
			for j, lo := range qc.qLo {
				if c := p[j]; !(lo <= c && c <= qc.qHi[j]) {
					return
				}
			}
		}
	}
	if f.rows.HasAll(r, ws) {
		qc.emit(f.ids[r])
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
// If every list is a bitmap they are ANDed a block of bmBlock words at a time
// (andBlock) and the set bits of the result are the candidates; with one
// bitmap that is the paper's scan, bit by bit. Otherwise the lists leapfrog, driven by the
// shortest sparse one (a sparse list is shorter than any dense one at the
// same node), inside ascending runs of the interval. At a covered node, or
// one whose drive list is shorter than clipMinDrive, the one run is the whole
// interval. At a crossing node with a longer drive list, clip first descends
// the node's own cells by the rectangle, before any list is read: ranks in
// cells that miss q are never candidates, and ranks in covered cells skip the
// region test. PagedBase.Query runs the same leapfrog over its cell runs.
//
// MatScanned and Ops count one unit per bitmap word ANDed plus one per
// candidate examined — a set bit of the AND, or a rank taken from the drive
// list; bit tests, like ranks leapt over, are free. A dense list of n ranks
// has at most n/2 + 1 words (denseList), so either way the node costs
// O(N_u^{1-1/k}), and 1 + the drive list bounds a sparse node's Ops. The
// cells clip relates are node visits (NodesVisited, CoveredNodes,
// CrossingNodes), not work units, as in PagedBase.Query. A stop check
// follows the clip and every candidate, and in an all-bitmap node every
// block: NodeBudget and Limit are met at a candidate, and the policy reads
// the clock every polPollEvery checks, so at most polPollEvery blocks pass
// between reads.
// Ranks are emitted in ascending order: leaf order.
func (qc *qctx) intersectSmall(u int32, ms, md int, covered bool) {
	f := qc.f
	lo := f.rankLo[u]
	bm := qc.bm[:md]
	if ms == 0 {
		// A block's words are charged when it ends, or up to the word whose
		// candidate stopped the query: no stop check reads the units.
		var blk [bmBlock]uint64
		for from := 0; from < len(bm[0]); from += bmBlock {
			words := blk[:min(bmBlock, len(bm[0])-from)]
			andBlock(words, bm, from)
			for i, w := range words {
				for base := lo + int32(from+i)<<6; w != 0; w &= w - 1 {
					qc.st.MatScanned++
					qc.st.Ops++
					qc.checkAndEmit(base+int32(bits.TrailingZeros64(w)), covered, qc.probe)
					if qc.stop() {
						qc.st.MatScanned += int64(i + 1)
						qc.st.Ops += int64(i + 1)
						return
					}
				}
			}
			qc.st.MatScanned += int64(len(words))
			qc.st.Ops += int64(len(words))
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
	qc.runs = qc.runs[:0]
	if shortest := int64(cur[d].Len()); !covered && shortest >= clipMinDrive {
		qc.clipLeft = shortest
		qc.clip(u, int64(f.rankSpan[u]), shortest)
		if qc.stop() {
			return
		}
	} else {
		qc.runs = append(qc.runs, rankRun{lo, lo + f.rankSpan[u], covered})
	}
	leapfrog(&qc.st, qc.runs, cur, d, bm, lo, qc.match, nil, qc.stop)
}

// bmBlock is how many words of an all-bitmap stop node are ANDed between two
// stop checks.
const bmBlock = 64

// andBlock writes to words the AND of the bitmaps bm over their words
// [from, from+len(words)): one pass per bitmap over the block.
func andBlock(words []uint64, bm [][]uint64, from int) {
	copy(words, bm[0][from:])
	for _, b := range bm[1:] {
		b = b[from : from+len(words)]
		for i := range words {
			words[i] &= b[i]
		}
	}
}

// match is the framework's candidate step: checkAndEmit, vouched for by the
// cell the run lies in and probing the keywords still large.
func (qc *qctx) match(r int32, covered bool) bool {
	qc.checkAndEmit(r, covered, qc.probe)
	return false
}

// rankRun is a stretch [lo, hi) of ranks that leapfrog scans; a covered run
// lies in cells inside q.
type rankRun struct {
	lo, hi  int32
	covered bool
}

// leapfrog intersects rank lists inside ascending runs: the sparse lists cur,
// driven by cur[d], the shortest, and the bitmaps bm over the ranks from
// bmLo. The drive list seeks to each run's first rank and leaves at its
// last; each rank it yields inside a run is a candidate, charged one unit of
// MatScanned and Ops, that a bitmap answers with one bit test and the other
// sparse lists by leapfrogging: one that leaps past the candidate names the
// next rank worth asking the driver about. Ranks come out ascending: leaf
// order at a stop node, rank order in the paged base.
//
// The two stores that call it bring the rest: their candidate step and their
// stop checks. match is given a rank every list holds and whether its run is
// covered. early is asked before a run's first seek and before the other
// lists are asked about a candidate just charged, late after a candidate was
// examined; either may be nil. A true from any of the three ends the
// intersection.
func leapfrog(st *QueryStats, runs []rankRun, cur []bitpack.Cursor, d int, bm [][]uint64, bmLo int32,
	match func(r int32, covered bool) bool, early, late func() bool) {
	drive := &cur[d]
	// target is the lowest rank that can still be in the intersection. It only
	// rises, across runs too, which is what Seek requires; a run a list has
	// already leapt past is skipped without a seek.
	target := int32(0)
	for _, run := range runs {
		if target >= run.hi {
			continue
		}
		target = max(target, run.lo)
		if early != nil && early() {
			return
		}
		for target < run.hi {
			r, ok := drive.Seek(target)
			if !ok {
				return
			}
			if r >= run.hi {
				target = r
				break
			}
			st.MatScanned++
			st.Ops++
			if early != nil && early() {
				return
			}
			target = r + 1
			hit, more := true, true
			for _, b := range bm {
				if off := uint32(r - bmLo); b[off>>6]>>(off&63)&1 == 0 {
					hit = false
					break
				}
			}
			for j := 0; hit && j < len(cur); j++ {
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
			if hit && match(r, run.covered) {
				return
			}
			if late != nil && late() || !more {
				return
			}
		}
	}
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
	qc.runs = addRun(qc.runs, lo, lo+f.pivotCount[v], false)
	for c, end := f.childFirst[v], f.childFirst[v]+f.childCount[v]; c < end; c++ {
		clo, chi := f.rankLo[c], f.rankLo[c]+f.rankSpan[c]
		if qc.clipLeft == 0 {
			qc.runs = addRun(qc.runs, clo, chi, false)
			continue
		}
		qc.clipLeft--
		rel := qc.relate(c)
		if rel == geom.Disjoint {
			continue
		}
		qc.st.NodesVisited++
		if rel == geom.Covered {
			qc.st.CoveredNodes++
			qc.runs = addRun(qc.runs, clo, chi, true)
			continue
		}
		qc.st.CrossingNodes++
		if f.childCount[c] > 0 && int64(f.rankSpan[c])*shortest >= clipMinDrive*span {
			qc.clip(c, span, shortest)
		} else {
			qc.runs = addRun(qc.runs, clo, chi, false)
		}
	}
}

// addRun appends the ranks [lo, hi) to runs, extending the last run when the
// two touch and agree on covered.
func addRun(runs []rankRun, lo, hi int32, covered bool) []rankRun {
	if lo == hi {
		return runs
	}
	if n := len(runs); n > 0 && runs[n-1].hi == lo && runs[n-1].covered == covered {
		runs[n-1].hi = hi
		return runs
	}
	return append(runs, rankRun{lo, hi, covered})
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
	// The root's lookups were made by resolveRoot. If any is small the node
	// is answered from the lists and the subtree is never descended;
	// qualifying pivots of u are contained in every such list, so they need
	// no separate scan. A small keyword without a list, or with an empty one,
	// occurs nowhere below u and ends the node at once.
	s, probe, ms, md := qc.sorted[:0], qc.probe[:0], 0, 0
	for i, w := range qc.ws {
		var li, mi int32
		var large bool
		if u == 0 {
			li, large, mi = qc.roots[i].li, qc.roots[i].large, qc.roots[i].mi
		} else if li, large = f.largeLookup(u, w); !large {
			mi = f.matLookup(u, w)
		}
		if large {
			s, probe = append(s, li), append(probe, w)
			continue
		}
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
			crel = qc.relate(child)
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
			if f.relate(first+ci, q) == geom.Crossing {
				rec(first + ci)
			}
		}
	}
	if f.relate(0, q) == geom.Crossing {
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
