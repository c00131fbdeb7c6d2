package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome classifies how a query ended, mirroring the typed errors of the
// execution-policy layer.
type Outcome string

// Span outcomes.
const (
	OutcomeOK       Outcome = "ok"
	OutcomeInvalid  Outcome = "invalid"
	OutcomeDeadline Outcome = "deadline"
	OutcomeBudget   Outcome = "budget"
	OutcomeCanceled Outcome = "canceled"
	OutcomePanic    Outcome = "panic"
	OutcomeError    Outcome = "error"
)

// Span is one completed query as seen by a Tracer. The Query field echoes
// the constraint the same way PanicError does ("region=... keywords=..."),
// so a span can be replayed by hand.
type Span struct {
	Family  string        // index family, e.g. "orpkw", "dynamic"
	Op      string        // entry point, e.g. "CollectInto"
	Query   string        // human-readable query echo
	K       int           // keyword arity the index was built for
	Out     int           // results reported
	Ops     int64         // work units (the ExecPolicy accounting unit)
	Nodes   int           // tree nodes visited
	Elapsed time.Duration // wall-clock time inside the entry point
	Outcome Outcome       // policy outcome classification
	Err     error         // the returned error, if any
}

// Tracer receives query spans. Begin fires on entry (before any work),
// End after the entry point finishes — including error and panic-recovered
// returns. Implementations must be safe for concurrent use; they run inline
// on the query path, so they should be cheap.
type Tracer interface {
	Begin(family, op string)
	End(Span)
}

// tracerBox wraps the interface so an atomic.Pointer can hold it.
type tracerBox struct{ t Tracer }

var globalTracer atomic.Pointer[tracerBox]

// SetTracer installs t as the process-wide tracer (nil uninstalls). Spans
// go to both the global tracer and any per-index tracer installed via build
// options.
func SetTracer(t Tracer) {
	if t == nil {
		globalTracer.Store(nil)
		setFlag(flagTracer, false)
		return
	}
	globalTracer.Store(&tracerBox{t: t})
	setFlag(flagTracer, true)
}

// ActiveTracer returns the installed global tracer, or nil.
func ActiveTracer() Tracer {
	if b := globalTracer.Load(); b != nil {
		return b.t
	}
	return nil
}

// SlowEntry is one retained slow query.
type SlowEntry struct {
	Family  string        `json:"family"`
	Op      string        `json:"op"`
	Query   string        `json:"query"` // echo, replayable by hand
	Ops     int64         `json:"ops"`
	Nodes   int           `json:"nodes"`
	Elapsed time.Duration `json:"elapsed_ns"`
	Outcome Outcome       `json:"outcome"`
}

// slowLog keeps the top-M queries by Ops in a small ring. Admission is a
// single atomic load against a running threshold: once the log is full the
// threshold rises to (current minimum)+1, so a steady stream of equal-cost
// queries stops paying for echo formatting entirely.
type slowLog struct {
	gate    atomic.Int64 // ops must be >= gate to be considered; MaxInt64 = disabled
	mu      sync.Mutex
	cap     int
	minOps  int64 // configured floor
	entries []SlowEntry
}

// slowDisabled is a gate no real ops count reaches (MaxInt64).
const slowDisabled = int64(^uint64(0) >> 1)

var slow slowLog

func init() { slow.gate.Store(slowDisabled) }

// EnableSlowLog starts retaining the top-`capacity` queries by Ops with at
// least minOps work units. capacity <= 0 disables the log and drops retained
// entries.
func EnableSlowLog(capacity int, minOps int64) {
	slow.mu.Lock()
	defer slow.mu.Unlock()
	if capacity <= 0 {
		slow.cap = 0
		slow.entries = nil
		slow.gate.Store(slowDisabled)
		setFlag(flagSlow, false)
		return
	}
	if minOps < 0 {
		minOps = 0
	}
	slow.cap = capacity
	slow.minOps = minOps
	slow.entries = slow.entries[:0]
	slow.gate.Store(minOps)
	setFlag(flagSlow, true)
}

// SlowAdmits is the hot-path check: would a query with this many work units
// make the log? False for nearly all traffic once the log is warm.
func SlowAdmits(ops int64) bool { return ops >= slow.gate.Load() }

// RecordSlow offers a completed query to the log. Callers should check
// SlowAdmits first; this re-checks under the lock so concurrent admissions
// stay consistent.
func RecordSlow(e SlowEntry) {
	slow.mu.Lock()
	defer slow.mu.Unlock()
	if slow.cap == 0 || e.Ops < slow.gate.Load() {
		return
	}
	if len(slow.entries) < slow.cap {
		slow.entries = append(slow.entries, e)
	} else {
		// Evict the minimum; e.Ops >= gate > min guarantees e belongs.
		minI := 0
		for i := 1; i < len(slow.entries); i++ {
			if slow.entries[i].Ops < slow.entries[minI].Ops {
				minI = i
			}
		}
		slow.entries[minI] = e
	}
	if len(slow.entries) == slow.cap {
		minOps := slow.entries[0].Ops
		for _, se := range slow.entries[1:] {
			if se.Ops < minOps {
				minOps = se.Ops
			}
		}
		// Full: only strictly more expensive queries are interesting now.
		slow.gate.Store(minOps + 1)
	}
}

// SlowQueries returns the retained entries, most expensive first.
func SlowQueries() []SlowEntry {
	slow.mu.Lock()
	out := make([]SlowEntry, len(slow.entries))
	copy(out, slow.entries)
	slow.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Ops > out[j].Ops })
	return out
}

// SlowArmed reports whether the slow log is retaining entries.
func SlowArmed() bool { return armedFlags.Load()&flagSlow != 0 }
