package core

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

// This file is the resilience layer of the query side: ExecPolicy bounds a
// traversal in wall-clock and work terms, invalid queries are rejected with
// typed errors before they reach a traversal, and index-internal panics are
// converted into errors at the public entry points. The paper bounds query
// cost at O(N^{1-1/k} (1 + OUT^{1/k})) asymptotically, but a serving system
// must bound it on adversarial inputs too — skewed documents, huge OUT,
// degenerate rectangles — where one query can otherwise pin a core
// indefinitely (inverted-index traversal is P-complete in general).

// Typed failure modes of a policy-bounded query. All of them accompany
// PARTIAL results: whatever was reported before the stop remains valid and
// is a prefix of the unbounded answer sequence.
var (
	// ErrDeadline is returned when ExecPolicy.Deadline passes mid-traversal.
	ErrDeadline = errors.New("core: query deadline exceeded")
	// ErrBudget is returned when ExecPolicy.NodeBudget work units are
	// exhausted mid-traversal.
	ErrBudget = errors.New("core: query node budget exhausted")
	// ErrCanceled is returned when ExecPolicy.Done is closed mid-traversal.
	ErrCanceled = errors.New("core: query canceled")
	// ErrInvalidQuery wraps every input-validation failure (NaN coordinates,
	// lo>hi rectangles, duplicate or wrong-count keyword tuples, ...); test
	// with errors.Is.
	ErrInvalidQuery = errors.New("core: invalid query")
	// ErrInvalidDataset wraps constructor rejections of unusable inputs (nil
	// or empty datasets) so they fail loudly at build time instead of
	// panicking inside a later traversal; test with errors.Is.
	ErrInvalidDataset = errors.New("core: invalid dataset")
)

// checkDataset is the shared constructor guard behind ErrInvalidDataset.
func checkDataset(ds *dataset.Dataset) error {
	if ds == nil {
		return fmt.Errorf("%w: nil dataset", ErrInvalidDataset)
	}
	if ds.Len() == 0 {
		return fmt.Errorf("%w: empty dataset", ErrInvalidDataset)
	}
	return nil
}

// ExecPolicy bounds the execution of one query. The zero value imposes no
// bounds and costs nothing on the traversal hot path. A stop sets
// QueryStats.Truncated and surfaces as a typed error (ErrDeadline, ErrBudget,
// ErrCanceled) alongside the partial results, so callers and the Degraded
// executor can react.
type ExecPolicy struct {
	// Deadline is the absolute wall-clock stop time (zero = none). The
	// traversal polls the clock every polPollEvery stop checks, so overshoot
	// is bounded by a few microseconds of node work.
	Deadline time.Time
	// NodeBudget stops the query after this many work units (QueryStats.Ops:
	// node visits plus objects examined; 0 = unlimited). Secondary
	// structures, Bentley–Saxe buckets, write buffers and the paged base
	// charge the same budget, so a stop node's scan is bounded as a descent
	// is.
	NodeBudget int64
	// Done cancels the query when closed (nil = none); pass ctx.Done() to
	// integrate with context.Context. Polled at the same cadence as
	// Deadline.
	Done <-chan struct{}
}

// polPollEvery is how many stop checks pass between clock/cancellation
// polls: stop checks fire at least once per node visit and per scanned
// object, so polls land every few microseconds while keeping time.Now off
// the per-node path.
const polPollEvery = 64

// shrunk returns the policy with its node budget reduced by work already
// consumed, for handing to a secondary traversal that restarts its own
// counters. Deadline and Done are absolute and shared as-is.
func (p ExecPolicy) shrunk(consumed int64) ExecPolicy {
	if p.NodeBudget > 0 {
		p.NodeBudget -= consumed
		if p.NodeBudget <= 0 {
			p.NodeBudget = 1 // the next check fires immediately
		}
	}
	return p
}

// polState tracks one traversal's progress against its policy. It lives
// inside the pooled query contexts, so activating it allocates nothing.
type polState struct {
	pol    ExecPolicy
	active bool
	tick   uint32
}

func newPolState(p ExecPolicy) polState {
	return polState{
		pol:    p,
		active: !p.Deadline.IsZero() || p.NodeBudget > 0 || p.Done != nil,
	}
}

// check returns the typed error that should stop the traversal now, or nil;
// a stop sets st.Truncated. work is the query's work units so far
// (QueryStats.Ops), charged against NodeBudget.
func (ps *polState) check(st *QueryStats, work int64) error {
	if !ps.active {
		return nil
	}
	if ps.pol.NodeBudget > 0 && work > ps.pol.NodeBudget {
		st.Truncated = true
		return ErrBudget
	}
	if ps.tick == 0 {
		ps.tick = polPollEvery
		// The deadline is tested first: a context past its deadline also
		// closes Done, and the cause to report is the deadline.
		if !ps.pol.Deadline.IsZero() && !time.Now().Before(ps.pol.Deadline) {
			st.Truncated = true
			return ErrDeadline
		}
		if ps.pol.Done != nil {
			select {
			case <-ps.pol.Done:
				st.Truncated = true
				return ErrCanceled
			default:
			}
		}
	}
	ps.tick--
	return nil
}

// PanicError is an index-internal panic converted into an error at a public
// query entry point: the process survives, and the failing query is echoed
// for reproduction.
type PanicError struct {
	Op    string // entry point, e.g. "ORPKW.CollectInto"
	Query string // echo of the query inputs
	Val   any    // the recovered panic value
	Stack []byte // goroutine stack at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: panic in %s (%s): %v", e.Op, e.Query, e.Val)
}

// newPanicError captures the panic value and stack; called on the panic path
// only, so its allocations never touch a healthy query.
func newPanicError(op string, val any, query string) *PanicError {
	return &PanicError{Op: op, Query: query, Val: val, Stack: debug.Stack()}
}

// echoRegion formats a query region and keyword tuple for PanicError.Query.
func echoRegion(q geom.Region, ws []dataset.Keyword) string {
	return fmt.Sprintf("region=%v keywords=%v", q, ws)
}

// echoQuery formats a non-Region constraint (halfspace list, simplex) and
// keyword tuple for PanicError.Query and tracing spans.
func echoQuery(q any, ws []dataset.Keyword) string {
	return fmt.Sprintf("query=%v keywords=%v", q, ws)
}

// echoPoint formats an NN query for PanicError.Query.
func echoPoint(q geom.Point, t int, ws []dataset.Keyword) string {
	return fmt.Sprintf("point=%v t=%d keywords=%v", q, t, ws)
}

// validateRect rejects rectangles no traversal can answer meaningfully: NaN
// bounds (every comparison is false, silently dropping results) and lo > hi
// on some dimension (an empty rectangle must be represented explicitly, not
// passed as a query). Infinite bounds are legal half-open ranges.
func validateRect(q *geom.Rect, dim int) error {
	if q == nil {
		return fmt.Errorf("%w: nil rectangle", ErrInvalidQuery)
	}
	if q.Dim() != dim || len(q.Hi) != len(q.Lo) {
		return fmt.Errorf("%w: rectangle of dimension %d against index of dimension %d", ErrInvalidQuery, q.Dim(), dim)
	}
	for i := range q.Lo {
		if math.IsNaN(q.Lo[i]) || math.IsNaN(q.Hi[i]) {
			return fmt.Errorf("%w: NaN bound on dimension %d", ErrInvalidQuery, i)
		}
		if q.Lo[i] > q.Hi[i] {
			return fmt.Errorf("%w: empty rectangle on dimension %d: [%v,%v]", ErrInvalidQuery, i, q.Lo[i], q.Hi[i])
		}
	}
	return nil
}

// validatePoint rejects query points with non-finite coordinates.
func validatePoint(p geom.Point, dim int) error {
	if len(p) != dim {
		return fmt.Errorf("%w: point of dimension %d against index of dimension %d", ErrInvalidQuery, len(p), dim)
	}
	for i, c := range p {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("%w: non-finite coordinate %v on dimension %d", ErrInvalidQuery, c, i)
		}
	}
	return nil
}

// validateSphere rejects spheres with non-finite centers or NaN/negative
// radii (an infinite radius is a legal full-space query).
func validateSphere(s *geom.Sphere, dim int) error {
	if s == nil {
		return fmt.Errorf("%w: nil sphere", ErrInvalidQuery)
	}
	if err := validatePoint(s.Center, dim); err != nil {
		return err
	}
	if math.IsNaN(s.Radius) || s.Radius < 0 {
		return fmt.Errorf("%w: sphere radius %v", ErrInvalidQuery, s.Radius)
	}
	return nil
}

// validateHalfspaces rejects constraints with NaN coefficients or bounds.
func validateHalfspaces(hs []geom.Halfspace, dim int) error {
	if len(hs) == 0 {
		return fmt.Errorf("%w: LC-KW query needs at least one constraint", ErrInvalidQuery)
	}
	for i, h := range hs {
		if len(h.Coef) != dim {
			return fmt.Errorf("%w: constraint %d has dimension %d, index has %d", ErrInvalidQuery, i, len(h.Coef), dim)
		}
		if math.IsNaN(h.Bound) {
			return fmt.Errorf("%w: constraint %d has NaN bound", ErrInvalidQuery, i)
		}
		for j, c := range h.Coef {
			if math.IsNaN(c) {
				return fmt.Errorf("%w: constraint %d has NaN coefficient on dimension %d", ErrInvalidQuery, i, j)
			}
		}
	}
	return nil
}
