package obs

import (
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

// Tracer receives query spans. End fires after an instrumented entry point
// finishes — including error and panic-recovered returns. Implementations
// must be safe for concurrent use; they run inline on the query path, so
// they should be cheap.
type Tracer interface {
	End(Span)
}

// tracerBox wraps the interface so an atomic.Pointer can hold it.
type tracerBox struct{ t Tracer }

var globalTracer atomic.Pointer[tracerBox]

// SetTracer installs t as the process-wide tracer (nil uninstalls). Every
// instrumented query on every observed index ends with one span to it.
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
