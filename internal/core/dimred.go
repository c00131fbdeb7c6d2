package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/spart"
)

// ORPKWHigh is the ORP-KW index for dimension d >= 3 of Theorem 2, built by
// the dimension-reduction technique of Section 4: a tree T over the
// x-dimension whose node at level l has fanout f_u = 2 * 2^(k^level)
// (equation (10)), children produced by an f_u-balanced cut (footnote 13's
// greedy packing), and a secondary (d-1)-dimensional ORP-KW index per node
// over that node's active set. The recursion bottoms out at d = 2 with the
// kd-tree framework of Theorem 1. Space grows by one O(log log N) factor per
// dimension (Lemma 11); query time stays O(N^{1-1/k} (1 + OUT^{1/k})).
//
// Rank space (Section 3.4) orders every cut and splits the d = 2
// secondaries, as it splits ORP-KW's tree, and is dropped once the index is
// built: sigma(u), the pivot tests and the secondaries' coordinates are the
// points' own, which a query compares as given (DESIGN.md, substitution 2).
type ORPKWHigh struct {
	ds     *dataset.Dataset
	k, dim int
	root   *drTree
	space  SpaceBreakdown

	// Build-time only, nil once the build returns: the goroutine budget
	// shared with the secondaries and the ranks that order the cuts.
	gate *parGate
	rs   *dataset.RankSpace

	fam family // metrics family (famNone when built with NoObs)
}

// drTree is the x-dimension tree cutting dimension off; its nodes carry
// secondary indexes over dimensions [off+1, dim).
type drTree struct {
	owner *ORPKWHigh
	off   int
	nodes []drNode
	pend  []pendingSec // nodes whose secondary structures remain to build
}

// pendingSec defers one node's secondary structure: the tree skeleton is
// built first (so the nodes slice stops reallocating), then the secondaries
// — the dominant construction cost, one per internal node over that node's
// full active set — are filled in, in parallel across nodes when the gate
// has budget.
type pendingSec struct {
	idx  int32
	objs []int32
}

type drNode struct {
	level            int
	fu               int64
	sigmaLo, sigmaHi float64 // sigma(u): coordinate range on dimension off
	pivots           []int32 // the cut separators e*_1..e*_{f-1}; for leaves, all objects
	children         []int32
	secKD            *Framework // when d - off - 1 == 2
	secDR            *drTree    // when d - off - 1 >= 3
}

const drLeafSize = 8

// BuildORPKWHigh constructs the index; the dataset must have dimension >= 3.
// The goroutine budget is shared between the x-dimension tree and every
// per-node secondary framework build.
func BuildORPKWHigh(ds *dataset.Dataset, k int, opts ...BuildOption) (*ORPKWHigh, error) {
	return buildORPKWHigh(ds, k, resolveOpts(opts))
}

// buildORPKWHigh is BuildORPKWHigh with resolved options.
func buildORPKWHigh(ds *dataset.Dataset, k int, opts BuildOpts) (*ORPKWHigh, error) {
	if err := checkDataset(ds); err != nil {
		return nil, err
	}
	if ds.Dim() < 3 {
		return nil, fmt.Errorf("core: ORPKWHigh requires d >= 3 (got d=%d); use BuildORPKW", ds.Dim())
	}
	if k < 2 {
		return nil, fmt.Errorf("core: k >= 2 required, got %d", k)
	}
	bt := obsBuildStart()
	rs := dataset.NewRankSpace(ds)
	ix := &ORPKWHigh{
		ds: ds, rs: rs, k: k, dim: ds.Dim(), gate: newParGate(opts.Parallelism),
		fam: opts.famFor(famORPKWHigh),
	}
	objs := make([]int32, ds.Len())
	for i := range objs {
		objs[i] = int32(i)
	}
	t, err := ix.buildTree(0, objs)
	if err != nil {
		return nil, err
	}
	ix.root = t
	ix.gate, ix.rs = nil, nil
	ix.accountSpace()
	obsBuildEnd(ix.fam, bt)
	return ix, nil
}

// buildTree builds the x-dimension tree cutting dimension off over objs:
// first the skeleton (cuts, pivots, children), then — once the nodes slice
// is stable — the deferred secondary structures, fanned out across
// goroutines as the gate's budget allows.
func (ix *ORPKWHigh) buildTree(off int, objs []int32) (*drTree, error) {
	t := &drTree{owner: ix, off: off}
	if _, err := t.build(objs, 0); err != nil {
		return nil, err
	}
	if err := t.buildSecondaries(); err != nil {
		return nil, err
	}
	t.pend = nil
	return t, nil
}

// buildSecondaries resolves the pending list. Each task touches only its own
// node (distinct idx), so the only synchronization needed is the join and
// the first-error capture.
func (t *drTree) buildSecondaries() error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	gate := t.owner.gate
	for i := range t.pend {
		p := t.pend[i]
		if len(p.objs) >= parallelCutoff && gate.tryAcquire() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer gate.release()
				if err := t.buildSecondary(p.idx, p.objs); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}()
			continue
		}
		if err := t.buildSecondary(p.idx, p.objs); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	}
	wg.Wait()
	return firstErr
}

func (t *drTree) build(objs []int32, level int) (int32, error) {
	ix := t.owner
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, drNode{level: level})
	n := &t.nodes[idx]
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, id := range objs {
		c := ix.ds.Point(id)[t.off]
		lo, hi = min(lo, c), max(hi, c)
	}
	n.sigmaLo, n.sigmaHi = lo, hi
	if len(objs) <= drLeafSize {
		n.pivots = append([]int32(nil), objs...)
		return idx, nil
	}
	n.fu = fanoutAt(ix.k, level, int64(len(objs))*4+4)
	// f_u-balanced cut (footnote 13): sort by the rank on dimension off
	// (ranks are distinct, so no ties) and pack greedily by weight.
	order := append([]int32(nil), objs...)
	sort.Slice(order, func(a, b int) bool {
		return ix.rs.Rank(order[a], t.off) < ix.rs.Rank(order[b], t.off)
	})
	var weight int64
	for _, id := range order {
		weight += int64(ix.ds.DocLen(id))
	}
	budget := weight / n.fu
	if budget < 1 {
		budget = 1
	}
	var groups [][]int32
	var pivots []int32
	cur := []int32{}
	var acc int64
	for _, id := range order {
		w := int64(ix.ds.DocLen(id))
		if acc+w > budget && int64(len(groups)) < n.fu-1 {
			pivots = append(pivots, id)
			groups = append(groups, cur)
			cur = nil
			acc = 0
			continue
		}
		cur = append(cur, id)
		acc += w
	}
	groups = append(groups, cur)
	nonEmpty := 0
	for _, g := range groups {
		if len(g) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		// Everything became a pivot: the node is a leaf (Section 4's "if
		// D_1..D_f are all empty, make u a leaf").
		t.nodes[idx].pivots = pivots
		return idx, nil
	}
	// Secondary structure over the full active set (pivots included) —
	// deferred until the skeleton is complete (see buildSecondaries).
	t.pend = append(t.pend, pendingSec{idx: idx, objs: objs})
	t.nodes[idx].pivots = pivots
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		child, err := t.build(g, level+1)
		if err != nil {
			return idx, err
		}
		t.nodes[idx].children = append(t.nodes[idx].children, child)
	}
	return idx, nil
}

func (t *drTree) buildSecondary(idx int32, objs []int32) error {
	ix := t.owner
	rem := ix.dim - t.off - 1 // dimensions the secondary must handle
	switch {
	case rem == 2:
		fw, err := BuildFramework(ix.ds, FrameworkConfig{
			K:        ix.k,
			Splitter: &spart.KD{Dim: 2},
			Objects:  objs,
			// Share the owner's goroutine budget: a sequential owner has
			// none, and builds its secondaries sequentially too.
			gate:      ix.gate,
			rankSpace: true,
		})
		if err != nil {
			return err
		}
		t.nodes[idx].secKD = fw
	case rem >= 3:
		sub, err := ix.buildTree(t.off+1, objs)
		if err != nil {
			return err
		}
		t.nodes[idx].secDR = sub
	default:
		return fmt.Errorf("core: dimension-reduction invariant broken: %d remaining dims", rem)
	}
	return nil
}

// fanoutAt evaluates f_u = 2 * 2^(k^level) (equation (10)), capped so it
// never overflows; cap is an upper bound past which the exact value no
// longer matters (the cut degenerates to "every object is a pivot").
func fanoutAt(k, level int, cap int64) int64 {
	e := 1.0
	for i := 0; i < level; i++ {
		e *= float64(k)
		if e > 60 {
			return cap
		}
	}
	f := int64(2) << int64(e)
	if f > cap || f < 2 {
		return cap
	}
	return f
}

// Query reports every object in q (original coordinates) whose document
// contains all k keywords.
func (ix *ORPKWHigh) Query(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts, report func(int32)) (st QueryStats, err error) {
	qt := obsBegin(ix.fam)
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError("ORPKWHigh.Query", r, echoRegion(q, ws))
		}
		if obsEnd(ix.fam, qt, &st, err) {
			obsSpan(ix.fam, "Query", echoRegion(q, ws), ix.k, qt, &st, err)
		}
	}()
	if err := ix.checkQuery(q, ws); err != nil {
		return QueryStats{}, err
	}
	qc := newQctx(ws, opts)
	qc.report = report
	ix.root.visit(0, q, qc)
	return qc.finish()
}

func (ix *ORPKWHigh) checkQuery(q *geom.Rect, ws []dataset.Keyword) error {
	if err := dataset.ValidateKeywords(ws); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidQuery, err)
	}
	if len(ws) != ix.k {
		return fmt.Errorf("%w: query carries %d keywords but the index was built for k=%d", ErrInvalidQuery, len(ws), ix.k)
	}
	return validateRect(q, ix.dim)
}

// CollectInto is Query returning the ids, with Framework.CollectInto's
// buffer contract.
func (ix *ORPKWHigh) CollectInto(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts, buf []int32) (out []int32, st QueryStats, err error) {
	qt := obsBegin(ix.fam)
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, newPanicError("ORPKWHigh.CollectInto", r, echoRegion(q, ws))
		}
		if obsEnd(ix.fam, qt, &st, err) {
			obsSpan(ix.fam, "CollectInto", echoRegion(q, ws), ix.k, qt, &st, err)
		}
	}()
	if err := ix.checkQuery(q, ws); err != nil {
		return nil, QueryStats{}, err
	}
	qc := newQctx(ws, opts)
	qc.collectInto(buf)
	ix.root.visit(0, q, qc)
	return qc.finishCollect(buf == nil)
}

// checkPivot examines one pivot against q on dimensions [t.off, dim): the
// dimensions below are vouched for by the ancestors' sigma containment.
func (t *drTree) checkPivot(id int32, q *geom.Rect, qc *qctx) {
	qc.st.PivotChecks++
	qc.st.Ops++
	p := t.owner.ds.Point(id)
	for j := t.off; j < len(p); j++ {
		if !(q.Lo[j] <= p[j] && p[j] <= q.Hi[j]) {
			return
		}
	}
	if t.owner.ds.HasAll(id, qc.ws) {
		qc.emit(id)
	}
}

// visit walks node u for the rectangle q, which every test compares in the
// points' own coordinates. The query's stats, Limit and policy live on qc.
func (t *drTree) visit(u int32, q *geom.Rect, qc *qctx) {
	if qc.stop() {
		return
	}
	n := &t.nodes[u]
	lo, hi := q.Lo[t.off], q.Hi[t.off]
	if n.sigmaHi < lo || n.sigmaLo > hi {
		return // sigma(u) disjoint from q's range on this dimension
	}
	failpoint(FPDimredVisit)
	qc.st.NodesVisited++
	qc.st.Ops++
	if len(n.children) == 0 && n.secKD == nil && n.secDR == nil {
		// Leaf: scan all objects.
		for _, id := range n.pivots {
			t.checkPivot(id, q, qc)
			if qc.stop() {
				return
			}
		}
		return
	}
	if n.sigmaLo >= lo && n.sigmaHi <= hi {
		// Type 1: sigma(u) contained in the query range; delegate to the
		// secondary structure over the remaining dimensions.
		qc.st.Type1Nodes++
		t.querySecondary(n, q, qc)
		return
	}
	// Type 2: examine the pivot separators, recurse into overlapping
	// children. At most two children per node can remain type 2.
	qc.st.Type2Nodes++
	for _, id := range n.pivots {
		t.checkPivot(id, q, qc)
		if qc.stop() {
			return
		}
	}
	for _, c := range n.children {
		t.visit(c, q, qc)
		if qc.done {
			return
		}
	}
}

// querySecondary answers a type-1 node from its secondary structure: a
// deeper tree on the same walk, or a d = 2 framework run on qc as one part
// of the query over q's final two dimensions, as a dynamic query runs a
// bucket. The part's Limit is the results still wanted and its node budget
// what the work so far left over; its stats join the query's, and a stop
// inside it ends the query.
func (t *drTree) querySecondary(n *drNode, q *geom.Rect, qc *qctx) {
	if n.secDR != nil {
		n.secDR.visit(0, q, qc)
		return
	}
	st, opts := qc.st, qc.opts
	d := t.owner.dim
	qc.sub.Lo, qc.sub.Hi = q.Lo[d-2:], q.Hi[d-2:]
	qc.opts.Limit = max(opts.Limit-st.Reported, 0)
	qc.pst.pol = opts.Policy.shrunk(st.Ops)
	n.secKD.run(qc, &qc.sub)
	st.add(qc.st)
	qc.st, qc.opts, qc.pst.pol = st, opts, opts.Policy
}

func (ix *ORPKWHigh) accountSpace() {
	var s SpaceBreakdown
	var walk func(t *drTree)
	walk = func(t *drTree) {
		for i := range t.nodes {
			n := &t.nodes[i]
			s.NodeWords += 6 + int64(len(n.children))
			s.PivotWords += int64(len(n.pivots))
			if n.secKD != nil {
				sec := n.secKD.Space()
				s.NodeWords += sec.NodeWords
				s.PivotWords += sec.PivotWords
				s.LargeWords += sec.LargeWords
				s.MatWords += sec.MatWords
				s.TensorBits += sec.TensorBits
			}
			if n.secDR != nil {
				walk(n.secDR)
			}
		}
	}
	walk(ix.root)
	ix.space = s
}

// Space returns the analytic space audit.
func (ix *ORPKWHigh) Space() SpaceBreakdown { return ix.space }

// K returns the keyword arity.
func (ix *ORPKWHigh) K() int { return ix.k }

// Levels returns the number of levels of the top x-dimension tree
// (Proposition 1 predicts O(log log N)).
func (ix *ORPKWHigh) Levels() int {
	m := 0
	for i := range ix.root.nodes {
		if l := ix.root.nodes[i].level; l > m {
			m = l
		}
	}
	return m + 1
}

// MaxFanout returns the largest realized fanout f_u in the top tree
// (Proposition 3 predicts O(N^{1-1/k})).
func (ix *ORPKWHigh) MaxFanout() int64 {
	var m int64
	for i := range ix.root.nodes {
		if f := int64(len(ix.root.nodes[i].children)); f > m {
			m = f
		}
	}
	return m
}

// Type2Profile runs the query and returns, per level of the top tree, how
// many type-2 nodes were visited — the quantity Figure 2 illustrates (at
// most two per level).
func (ix *ORPKWHigh) Type2Profile(q *geom.Rect, ws []dataset.Keyword) ([]int, error) {
	if err := ix.checkQuery(q, ws); err != nil {
		return nil, err
	}
	var levels []int
	var rec func(u int32)
	t := ix.root
	rec = func(u int32) {
		n := &t.nodes[u]
		lo, hi := q.Lo[t.off], q.Hi[t.off]
		if n.sigmaHi < lo || n.sigmaLo > hi {
			return
		}
		if n.sigmaLo >= lo && n.sigmaHi <= hi {
			return // type 1
		}
		for len(levels) <= n.level {
			levels = append(levels, 0)
		}
		levels[n.level]++
		for _, c := range n.children {
			rec(c)
		}
	}
	rec(0)
	return levels, nil
}
