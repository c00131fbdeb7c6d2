package core

import (
	"runtime"

	"kwsc/internal/obs"
)

// BuildOpts tunes index construction across the whole suite. The variadic
// builders accept functional BuildOptions (see options.go); the Build*With
// forms accept this struct directly and remain for compatibility.
type BuildOpts struct {
	// Parallelism caps the number of goroutines a build may use: <= 0
	// selects runtime.GOMAXPROCS(0), 1 forces a fully sequential build.
	// Parallel and sequential builds of the same input produce indexes that
	// answer every query identically (the recursion splits the object set
	// the same way; only which goroutine builds which subtree differs).
	Parallelism int

	// Tracer, when non-nil, receives a span for every query this index
	// answers, in addition to the process-wide tracer (obs.SetTracer).
	Tracer obs.Tracer

	// NoObs excludes the index from the metrics registry and tracing.
	// Composite indexes set it on their inner structures so each user query
	// is observed exactly once.
	NoObs bool
}

// parallelCutoff is the subtree size (in objects) below which construction
// stays on the current goroutine: small subtrees finish faster than the
// cost of scheduling them elsewhere.
const parallelCutoff = 2048

// parGate is a counted semaphore bounding the extra goroutines a build may
// spawn. The nil gate is valid and means "never spawn" (sequential build).
//
// Spawning is strictly opportunistic — tryAcquire never blocks — so a
// goroutine that holds a token and waits for its children cannot deadlock:
// children that fail to acquire a token are built inline on the waiting
// goroutine's own stack before it joins.
type parGate struct {
	tokens chan struct{}
}

// newParGate sizes a gate for the requested parallelism (see BuildOpts).
func newParGate(parallelism int) *parGate {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism <= 1 {
		return nil
	}
	// The calling goroutine is itself a worker, so a parallelism budget of
	// P allows P-1 concurrent spawns.
	return &parGate{tokens: make(chan struct{}, parallelism-1)}
}

// tryAcquire reserves a goroutine slot; the caller must release() it when
// the spawned work finishes. It never blocks.
func (g *parGate) tryAcquire() bool {
	if g == nil {
		return false
	}
	select {
	case g.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

func (g *parGate) release() { <-g.tokens }
