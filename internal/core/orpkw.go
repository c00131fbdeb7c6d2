package core

import (
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/spart"
)

// ORPKW is the orthogonal-range-reporting-with-keywords index of Theorem 1:
// the kd-tree put through the transformation framework. The tree is split in
// rank space (Step 4, Section 3.4), which gives it general position, and
// queried in the points' own coordinates: its rows are the dataset's
// objects by rank and a node's cell is their points' tight box, which relates to a
// rectangle exactly as the node's rank box relates to the rectangle's rank
// conversion (DESIGN.md, substitution 2). For d <= 2 it provides the paper's
// O(N)-space, O(N^{1-1/k} (1 + OUT^{1/k}))-query guarantee; for d >= 3 the
// same construction still answers correctly but its crossing sensitivity
// degrades as noted in Section 3.5 — use ORPKWHigh (Theorem 2) there.
type ORPKW struct {
	fw *Framework

	fam family // metrics family (famNone when built with NoObs)
}

// BuildORPKW constructs the index for queries carrying exactly k keywords.
// Parallel and sequential builds answer every query identically.
func BuildORPKW(ds *dataset.Dataset, k int, opts ...BuildOption) (*ORPKW, error) {
	return buildORPKW(ds, k, resolveOpts(opts))
}

// buildORPKW is BuildORPKW with resolved options; composites pass their
// inner() options through it.
func buildORPKW(ds *dataset.Dataset, k int, opts BuildOpts) (*ORPKW, error) {
	if err := checkDataset(ds); err != nil {
		return nil, err
	}
	bt := obsBuildStart()
	fw, err := BuildFramework(ds, FrameworkConfig{
		K:         k,
		Splitter:  &spart.KD{Dim: ds.Dim()},
		gate:      newParGate(opts.Parallelism),
		rankSpace: true,
	})
	if err != nil {
		return nil, err
	}
	ix := newORPKW(fw, opts)
	obsBuildEnd(ix.fam, bt)
	return ix, nil
}

// newORPKW assembles the index around its framework, deriving the root's
// keyword directories; the space audit counts them beside the tree.
func newORPKW(fw *Framework, opts BuildOpts) *ORPKW {
	fw.space.AuxWords += fw.indexRoot()
	return &ORPKW{fw: fw, fam: opts.famFor(famORPKW)}
}

// Query reports every object in q whose document contains all keywords.
func (ix *ORPKW) Query(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts, report func(int32)) (st QueryStats, err error) {
	qt := obsBegin(ix.fam)
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError("ORPKW.Query", r, echoRegion(q, ws))
		}
		if obsEnd(ix.fam, qt, &st, err) {
			obsSpan(ix.fam, "Query", echoRegion(q, ws), ix.fw.K(), qt, &st, err)
		}
	}()
	if err := ix.check(q, ws); err != nil {
		return QueryStats{}, err
	}
	qc := newQctx(ws, opts)
	qc.report = report
	ix.run(qc, q)
	return qc.finish()
}

// CollectInto is Query returning the ids, with Framework.CollectInto's
// buffer contract.
func (ix *ORPKW) CollectInto(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts, buf []int32) (out []int32, st QueryStats, err error) {
	qt := obsBegin(ix.fam)
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, newPanicError("ORPKW.CollectInto", r, echoRegion(q, ws))
		}
		if obsEnd(ix.fam, qt, &st, err) {
			obsSpan(ix.fam, "CollectInto", echoRegion(q, ws), ix.fw.K(), qt, &st, err)
		}
	}()
	if err := ix.check(q, ws); err != nil {
		return nil, QueryStats{}, err
	}
	qc := newQctx(ws, opts)
	qc.collectInto(buf)
	ix.run(qc, q)
	return qc.finishCollect(buf == nil)
}

// check rejects a query the index cannot answer: an invalid rectangle or a
// keyword tuple of the wrong arity or with duplicates.
func (ix *ORPKW) check(q *geom.Rect, ws []dataset.Keyword) error {
	if err := validateRect(q, ix.fw.pdim); err != nil {
		return err
	}
	return ix.fw.checkQuery(ws)
}

// run is the one entry into the index — for Query, CollectInto and every
// bucket of a dynamic query — with a checked rectangle q and qc's keywords,
// options and policy. After the policy's first stop check the keywords are
// resolved at the root (resolveRoot): one neither large there nor with a
// non-empty list occurs in no object, so the answer is empty and no node is
// visited. Otherwise the traversal relates q to the boxes as it is.
func (ix *ORPKW) run(qc *qctx, q *geom.Rect) {
	qc.enter(ix.fw, q)
	if qc.stop() || !qc.resolveRoot() {
		return
	}
	if rel := qc.relate(0); rel != geom.Disjoint {
		qc.visit(0, rel)
	}
}

// Framework exposes the underlying transformed index (for instrumentation).
func (ix *ORPKW) Framework() *Framework { return ix.fw }

// Space returns the analytic space audit.
func (ix *ORPKW) Space() SpaceBreakdown { return ix.fw.Space() }

// K returns the keyword arity.
func (ix *ORPKW) K() int { return ix.fw.K() }
