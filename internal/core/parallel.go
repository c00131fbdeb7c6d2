package core

import (
	"runtime"
	"sync"
)

// BuildOpts tunes index construction across the whole suite. Builders take
// functional BuildOptions (see options.go) and resolve them into this struct;
// composites pass its inner() form to the unexported builders they wrap.
type BuildOpts struct {
	// Parallelism caps the number of goroutines a build may use: <= 0
	// selects runtime.GOMAXPROCS(0), 1 forces a fully sequential build.
	// Parallel and sequential builds of the same input produce indexes that
	// answer every query identically (the recursion splits the object set
	// the same way; only which goroutine builds which subtree differs).
	Parallelism int

	// NoObs excludes the index from the metrics registry and tracing.
	// Composite indexes set it on their inner structures so each user query
	// is observed exactly once.
	NoObs bool
}

// parallelCutoff is the subtree size (in objects) below which construction
// stays on the current goroutine: small subtrees finish faster than the
// cost of scheduling them elsewhere. It is a variable only so that a test
// can make small builds spawn.
var parallelCutoff = 2048

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

// each runs task(0), ..., task(n-1) and returns when all are done: task i,
// i >= 1, goes to a goroutine of its own when the gate lends one, and the
// rest run on the caller's, in order.
func (g *parGate) each(n int, task func(i int)) {
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		if !g.tryAcquire() {
			task(i)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer g.release()
			task(i)
		}()
	}
	if n > 0 {
		task(0)
	}
	wg.Wait()
}

// parts returns how many ranges spread cuts n items into: as many as the
// gate's parallelism, none shorter than parallelCutoff, and 1 for a nil gate.
func (g *parGate) parts(n int) int {
	if g == nil {
		return 1
	}
	return max(min(cap(g.tokens)+1, n/parallelCutoff), 1)
}

// spread runs fn over [0, n) cut into g.parts(n) equal ranges, through each.
func (g *parGate) spread(n int, fn func(lo, hi int)) {
	parts := g.parts(n)
	if parts == 1 {
		fn(0, n)
		return
	}
	g.each(parts, func(p int) { fn(p*n/parts, (p+1)*n/parts) })
}
