package kwsc

// Versioned wire types for the served API (cmd/kwscd). These are the JSON
// bodies the /v1 endpoints speak, shared by the server, the kwsload load
// generator, and client code (see examples/served) so the contract lives in
// exactly one place. The schema is additive-versioned: /v1 fields are never
// removed or repurposed; a breaking change mints /v2 alongside.
//
// Validation is strict and maps onto ErrInvalidQuery: a malformed request
// fails before any shard is touched, with the same typed error the in-process
// constructors use, so HTTP 400s and library misuse share one vocabulary.

import (
	"fmt"
	"math"
	"time"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

// APIVersion is the served API generation; all endpoints live under its
// path prefix.
const APIVersion = "v1"

// Served endpoint paths.
const (
	PathQuery = "/" + APIVersion + "/query"
	PathWrite = "/" + APIVersion + "/write"
)

// RectWire is a closed rectangle on the wire; use JSON nulls / omitted
// bounds never — both slices must carry one value per dimension
// (±Inf as strings is not supported; use very large magnitudes or omit the
// constraint entirely for pure keyword search).
type RectWire struct {
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
}

// SphereWire is a closed L2 ball on the wire.
type SphereWire struct {
	Center []float64 `json:"center"`
	Radius float64   `json:"radius"`
}

// QueryRequest is the body of POST /v1/query. At most one of Rect and
// Sphere may be set; neither means pure keyword search over all of space.
type QueryRequest struct {
	// Client identifies the caller for per-client admission quotas;
	// empty shares the anonymous bucket.
	Client string `json:"client,omitempty"`
	// Rect constrains results to a closed rectangle.
	Rect *RectWire `json:"rect,omitempty"`
	// Sphere constrains results to a closed L2 ball.
	Sphere *SphereWire `json:"sphere,omitempty"`
	// Keywords the result documents must all contain; arity must match the
	// serving index's k.
	Keywords []Keyword `json:"keywords"`
	// Limit caps the number of returned ids (0 = all).
	Limit int `json:"limit,omitempty"`
	// TimeoutMs sets the query's deadline this many milliseconds after the
	// server receives it (0 = the server default; past a time.Duration is
	// invalid); a deadline stop returns the prefix-correct partial result
	// with Truncated set.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// NodeBudget bounds per-shard work units (0 = server default,
	// which is unlimited unless the server is shedding load).
	NodeBudget int64 `json:"node_budget,omitempty"`
	// MaxStalenessMs lets dynamic shards answer from a cached MVCC snapshot
	// at most this old instead of pinning a fresh one (0 = always fresh).
	// Per-shard Seq in the response reports exactly which operation prefix
	// answered.
	MaxStalenessMs int64 `json:"max_staleness_ms,omitempty"`
}

// ShardOutcome reports how one shard's scatter leg ended.
type ShardOutcome struct {
	Shard    int   `json:"shard"`
	Reported int   `json:"reported"`
	Ops      int64 `json:"ops"`
	// Seq is the WAL operation prefix a dynamic shard answered at
	// (0 for static shards).
	Seq uint64 `json:"seq,omitempty"`
	// Outcome is "ok", "deadline", "budget", "canceled", "panic", or
	// "error".
	Outcome string `json:"outcome"`
	// FellBack is never set; bench/ reads it until ROADMAP [instruments]
	// removes it.
	FellBack bool `json:"fell_back,omitempty"`
	// Replica names the replica-group member that answered this leg
	// ("writer", "replica-N"; empty on non-replicated deployments).
	Replica string `json:"replica,omitempty"`
	// StalenessMs is the measured replication-lag age of the answering
	// replica in milliseconds (0 for authoritative legs; -1 for a follower
	// that has never been provably caught up).
	StalenessMs int64 `json:"staleness_ms,omitempty"`
	// Stale reports the leg was answered beyond the request's
	// max_staleness_ms bound — graceful degradation, not silent lying.
	Stale bool `json:"stale,omitempty"`
}

// QueryResponse is the body of a successful POST /v1/query.
type QueryResponse struct {
	// IDs are the matching global object ids (static corpora: positions in
	// the served dataset; dynamic: stable write handles), ascending.
	IDs []int64 `json:"ids"`
	// Count == len(IDs), kept explicit for clients that drop the array.
	Count int `json:"count"`
	// Truncated reports a partial (but prefix-correct) result: some shard
	// stopped on a limit, deadline, budget, or failure.
	Truncated bool `json:"truncated,omitempty"`
	// Degraded reports the request was admitted in the degraded band: each
	// shard ran under the server's degraded node budget.
	Degraded bool `json:"degraded,omitempty"`
	// Stale reports that at least one shard answered beyond the request's
	// max_staleness_ms bound (see ShardOutcome.Stale for which).
	Stale bool `json:"stale,omitempty"`
	// ElapsedUs is the server-side wall time of the scatter-gather.
	ElapsedUs int64 `json:"elapsed_us"`
	// Shards reports per-shard outcomes, ascending by shard.
	Shards []ShardOutcome `json:"shards,omitempty"`
}

// Write operations.
const (
	OpInsert = "insert"
	OpDelete = "delete"
)

// WriteRequest is the body of POST /v1/write (dynamic corpora only).
type WriteRequest struct {
	// Client identifies the caller for admission quotas.
	Client string `json:"client,omitempty"`
	// Op is OpInsert or OpDelete.
	Op string `json:"op"`
	// Point and Doc describe the inserted object (Op == "insert").
	Point []float64 `json:"point,omitempty"`
	Doc   []Keyword `json:"doc,omitempty"`
	// Handle identifies the object to delete (Op == "delete"), as returned
	// by a previous insert.
	Handle int64 `json:"handle,omitempty"`
}

// WriteResponse is the body of a successful POST /v1/write. The operation is
// durable — acknowledged by the owning shard's WAL per its fsync policy —
// exactly when the HTTP status is 200.
type WriteResponse struct {
	// Handle is the inserted object's global handle (Op == "insert").
	Handle int64 `json:"handle,omitempty"`
	// Deleted reports whether the handle existed (Op == "delete").
	Deleted bool `json:"deleted,omitempty"`
	// Seq is the owning shard's WAL sequence after the operation.
	Seq uint64 `json:"seq,omitempty"`
	// Shard is the owning shard.
	Shard int `json:"shard"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	// Code is "invalid", "quota", "overload", "unsupported", or "internal".
	Code string `json:"code"`
	// Error is a human-readable detail.
	Error string `json:"error"`
}

// Error codes carried by ErrorResponse.Code.
const (
	CodeInvalid     = "invalid"     // 400: request failed validation
	CodeQuota       = "quota"       // 429: per-client token bucket empty
	CodeOverload    = "overload"    // 429: global in-flight limit reached
	CodeUnsupported = "unsupported" // 400: op not supported by this corpus
	CodeInternal    = "internal"    // 500
)

func checkFinite(what string, v []float64) error {
	for i, x := range v {
		if math.IsNaN(x) {
			return fmt.Errorf("%w: %s[%d] is NaN", ErrInvalidQuery, what, i)
		}
	}
	return nil
}

// maxDurationMs is the largest millisecond count a time.Duration holds.
const maxDurationMs = math.MaxInt64 / int64(time.Millisecond)

// Validate checks the request against the serving index's dimensionality
// and keyword arity; every failure wraps ErrInvalidQuery. dim <= 0 or
// k <= 0 skip the respective shape checks (for clients validating before
// they know the server's parameters).
func (r *QueryRequest) Validate(dim, k int) error {
	if r.Rect != nil && r.Sphere != nil {
		return fmt.Errorf("%w: at most one of rect and sphere may be set", ErrInvalidQuery)
	}
	if r.Rect != nil {
		if len(r.Rect.Lo) != len(r.Rect.Hi) {
			return fmt.Errorf("%w: rect lo/hi lengths differ (%d vs %d)",
				ErrInvalidQuery, len(r.Rect.Lo), len(r.Rect.Hi))
		}
		if dim > 0 && len(r.Rect.Lo) != dim {
			return fmt.Errorf("%w: rect is %d-dimensional, index is %d-dimensional",
				ErrInvalidQuery, len(r.Rect.Lo), dim)
		}
		if err := checkFinite("rect.lo", r.Rect.Lo); err != nil {
			return err
		}
		if err := checkFinite("rect.hi", r.Rect.Hi); err != nil {
			return err
		}
		for i := range r.Rect.Lo {
			if r.Rect.Lo[i] > r.Rect.Hi[i] {
				return fmt.Errorf("%w: rect inverted on dimension %d (%g > %g)",
					ErrInvalidQuery, i, r.Rect.Lo[i], r.Rect.Hi[i])
			}
		}
	}
	if r.Sphere != nil {
		if dim > 0 && len(r.Sphere.Center) != dim {
			return fmt.Errorf("%w: sphere center is %d-dimensional, index is %d-dimensional",
				ErrInvalidQuery, len(r.Sphere.Center), dim)
		}
		if err := checkFinite("sphere.center", r.Sphere.Center); err != nil {
			return err
		}
		if math.IsNaN(r.Sphere.Radius) || math.IsInf(r.Sphere.Radius, 0) || r.Sphere.Radius < 0 {
			return fmt.Errorf("%w: sphere radius %g", ErrInvalidQuery, r.Sphere.Radius)
		}
	}
	if k > 0 && len(r.Keywords) != k {
		return fmt.Errorf("%w: got %d keywords, index requires exactly %d",
			ErrInvalidQuery, len(r.Keywords), k)
	}
	if err := dataset.ValidateKeywords(r.Keywords); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidQuery, err)
	}
	if r.Limit < 0 {
		return fmt.Errorf("%w: negative limit %d", ErrInvalidQuery, r.Limit)
	}
	if r.TimeoutMs < 0 || r.TimeoutMs > maxDurationMs {
		return fmt.Errorf("%w: timeout_ms %d outside [0, %d]", ErrInvalidQuery, r.TimeoutMs, maxDurationMs)
	}
	if r.NodeBudget < 0 {
		return fmt.Errorf("%w: negative node_budget %d", ErrInvalidQuery, r.NodeBudget)
	}
	if r.MaxStalenessMs < 0 || r.MaxStalenessMs > maxDurationMs {
		return fmt.Errorf("%w: max_staleness_ms %d outside [0, %d]", ErrInvalidQuery, r.MaxStalenessMs, maxDurationMs)
	}
	return nil
}

// BoundingRect returns the tightest rectangle covering the request's region
// in the given dimensionality: the rect itself, the sphere's bounding box,
// or the universe for pure keyword search. Validate first.
func (r *QueryRequest) BoundingRect(dim int) *Rect {
	switch {
	case r.Rect != nil:
		return geom.NewRect(r.Rect.Lo, r.Rect.Hi)
	case r.Sphere != nil:
		lo := make([]float64, len(r.Sphere.Center))
		hi := make([]float64, len(r.Sphere.Center))
		for i, c := range r.Sphere.Center {
			lo[i] = c - r.Sphere.Radius
			hi[i] = c + r.Sphere.Radius
		}
		return geom.NewRect(lo, hi)
	default:
		return geom.UniverseRect(dim)
	}
}

// ExactRegion returns the request's region for exact point filtering, or nil
// when the bounding rectangle already is exact (rect or keyword-only
// queries).
func (r *QueryRequest) ExactRegion() Region {
	if r.Sphere != nil {
		return geom.NewSphere(Point(r.Sphere.Center), r.Sphere.Radius)
	}
	return nil
}

// Opts converts the request's knobs into QueryOpts, resolving its timeout —
// defaultTimeout when the request carries none (<= 0 disables the default
// too) — to one absolute deadline, so every shard races the same clock.
func (r *QueryRequest) Opts(defaultTimeout time.Duration) QueryOpts {
	opts := QueryOpts{Limit: r.Limit, Policy: ExecPolicy{NodeBudget: r.NodeBudget}}
	timeout := defaultTimeout
	if r.TimeoutMs > 0 {
		timeout = time.Duration(r.TimeoutMs) * time.Millisecond
	}
	if timeout > 0 {
		opts.Policy.Deadline = time.Now().Add(timeout)
	}
	return opts
}

// Validate checks the write request against the serving index's
// dimensionality; every failure wraps ErrInvalidQuery.
func (w *WriteRequest) Validate(dim int) error {
	switch w.Op {
	case OpInsert:
		if dim > 0 && len(w.Point) != dim {
			return fmt.Errorf("%w: point is %d-dimensional, index is %d-dimensional",
				ErrInvalidQuery, len(w.Point), dim)
		}
		if err := checkFinite("point", w.Point); err != nil {
			return err
		}
		for i, x := range w.Point {
			if math.IsInf(x, 0) {
				return fmt.Errorf("%w: point[%d] is infinite", ErrInvalidQuery, i)
			}
		}
		if len(w.Doc) == 0 {
			return fmt.Errorf("%w: insert requires a non-empty doc", ErrInvalidQuery)
		}
	case OpDelete:
		if w.Handle < 0 {
			return fmt.Errorf("%w: negative handle %d", ErrInvalidQuery, w.Handle)
		}
	default:
		return fmt.Errorf("%w: unknown op %q", ErrInvalidQuery, w.Op)
	}
	return nil
}

// Object converts an insert request into the library's object type.
func (w *WriteRequest) Object() Object {
	return Object{Point: Point(w.Point), Doc: w.Doc}
}
