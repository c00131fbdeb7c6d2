package kwsc

// Unified index API. Every static family answers the same shaped question —
// "report the objects inside query shape Q whose documents carry all k
// keywords" — through the same methods; only the shape of Q differs per
// family (rectangles, spheres, halfspace conjunctions). Index captures that
// surface once, generically over the query shape, so layers above the facade
// (internal/serve's shards, user fan-out code) can hold any family behind one
// type instead of switching on concrete structs, and Count and Empty are
// written once over it:
//
//	var ix kwsc.Index[*kwsc.Rect] = orpkw // or ORPKWHigh, RRKW
//	ids, st, err := ix.CollectInto(q, ws, kwsc.QueryOpts{}, nil)
//
// DynamicIndex is the same idea for the mutable indexes: DynamicORPKW and
// its durable wrapper share the mutator, handle-reporting query and snapshot
// surface under the same names.

// Index is the read surface shared by every static index family,
// parameterized by the family's query shape Q:
//
//	Index[*Rect]       ORPKW, ORPKWHigh, RRKW, Degraded
//	Index[*Sphere]     SRPKW
//	Index[[]Halfspace] LCKW
//
// All methods are safe for concurrent use (static indexes are immutable
// after construction). Results are reported as positions into the dataset
// the index was built from. A policy stop (ErrDeadline, ErrBudget,
// ErrCanceled) returns the results reported so far — a prefix-correct
// subset of the full answer — alongside the typed error.
type Index[Q any] interface {
	// Query streams matching object ids to report.
	Query(q Q, ws []Keyword, opts QueryOpts, report func(int32)) (QueryStats, error)
	// CollectInto is Query returning the ids. The result overwrites buf
	// from index 0 — it does not append — reusing buf's capacity, and
	// aliases buf, never index scratch, so the caller owns it (0
	// steady-state allocs/op with a warmed buf). A nil buf yields one
	// exact-size allocation.
	CollectInto(q Q, ws []Keyword, opts QueryOpts, buf []int32) ([]int32, QueryStats, error)
	// K returns the keyword arity queries must carry.
	K() int
}

// Count returns the number of objects ix reports for q and ws.
func Count[Q any](ix Index[Q], q Q, ws []Keyword) (int, QueryStats, error) {
	n := 0
	st, err := ix.Query(q, ws, QueryOpts{}, func(int32) { n++ })
	return n, st, err
}

// Empty reports whether ix has no answer for q and ws: a query stopped at
// its first result, as the paper's footnote 4 decides emptiness.
func Empty[Q any](ix Index[Q], q Q, ws []Keyword) (bool, QueryStats, error) {
	st, err := ix.Query(q, ws, QueryOpts{Limit: 1}, func(int32) {})
	return st.Reported == 0, st, err
}

// DynamicIndex is the surface shared by the mutable indexes: the in-memory
// DynamicORPKW and the WAL-backed DurableORPKW. Mutators serialize
// internally; queries run lock-free against the last published state.
// Results are reported as (stable handle, object) pairs — positions are
// meaningless under churn. The *Object is scratch, valid only during the
// callback; copy its Point and Doc slice headers out to keep them. They view
// immutable index columns and stay readable under later churn — except
// under WithPagedRecovery without a mapping, where they are scratch too.
type DynamicIndex interface {
	// Insert adds an object and returns its stable handle.
	Insert(obj Object) (int64, error)
	// Delete removes the object with the given handle; deleting an unknown
	// or already-deleted handle returns (false, nil).
	Delete(handle int64) (bool, error)
	// Query reports every live object in q carrying all k keywords, under
	// opts (limits, budgets, deadlines).
	Query(q *Rect, ws []Keyword, opts QueryOpts, report func(handle int64, obj *Object)) (QueryStats, error)
	// SnapshotNow pins the current state for repeatable reads.
	SnapshotNow() *DynSnapshot
	// Seq returns the sequence number of the last applied mutation: the
	// operation prefix a query entered now answers at.
	Seq() uint64
	// Len returns the number of live objects; NumBuckets the occupied
	// static parts; Tombstones the deleted-but-unpurged entries.
	Len() int
	NumBuckets() int
	Tombstones() int
	// K returns the keyword arity queries must carry.
	K() int
}

// Compile-time assertions: one per family, so a signature drift in any
// family breaks the build here rather than at a use site.
var (
	_ Index[*Rect]       = (*ORPKW)(nil)
	_ Index[*Rect]       = (*ORPKWHigh)(nil)
	_ Index[*Rect]       = (*RRKW)(nil)
	_ Index[*Rect]       = (*Degraded)(nil)
	_ Index[*Sphere]     = (*SRPKW)(nil)
	_ Index[[]Halfspace] = (*LCKW)(nil)

	_ DynamicIndex = (*DynamicORPKW)(nil)
	_ DynamicIndex = (*DurableORPKW)(nil)
)
