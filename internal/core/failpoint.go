package core

import (
	"sync"
	"sync/atomic"
)

// Failpoints inject faults mid-traversal so tests can prove the resilience
// layer degrades gracefully instead of crashing or hanging: a registered
// action (panic, stall, burn budget) runs at a named site inside the query
// path. The registry is always compiled in; when nothing is armed the whole
// mechanism costs a single atomic load per site, so the hot path stays
// allocation-free and branch-predictable.
//
// Arm/Disarm are test-only by convention; they are exported (rather than
// build-tagged) so the facade package's degraded-mode tests can reach them.

// Failpoint site names.
const (
	// FPFrameworkVisit fires once per node visit of the Section 3 framework
	// traversal (ORP-KW d<=2, SP-KW, SRP-KW, k-SI all route through it).
	FPFrameworkVisit = "framework/visit"
	// FPDimredVisit fires once per node visit of the Section 4
	// dimension-reduction tree (ORP-KW d>=3).
	FPDimredVisit = "dimred/visit"
	// FPDynamicBucket fires once per Bentley–Saxe bucket scanned by a
	// dynamic-index query.
	FPDynamicBucket = "dynamic/bucket"
	// FPDynamicBuild fires once per Bentley–Saxe bucket build: in the first
	// read that reaches the bucket, or in the merge that installs it.
	FPDynamicBuild = "dynamic/build"
	// FPNNProbe fires once per range probe issued by a nearest-neighbor
	// search.
	FPNNProbe = "nn/probe"
)

var (
	fpArmed   atomic.Int32 // number of armed failpoints; 0 short-circuits
	fpMu      sync.Mutex
	fpActions = map[string]func(){}
	fpErrs    = map[string]error{} // sites armed to fail, see armFailpointError
)

// ArmFailpoint registers action to run whenever the named site is reached.
// Re-arming a site replaces its action. The action runs on the querying
// goroutine and may panic, sleep, or close channels.
func ArmFailpoint(name string, action func()) {
	fpMu.Lock()
	defer fpMu.Unlock()
	if _, dup := fpActions[name]; !dup {
		fpArmed.Add(1)
	}
	fpActions[name] = action
	delete(fpErrs, name)
}

// armFailpointError arms the named site to fail the operation it guards with
// err. Only sites that can fail read it, through failpointError.
func armFailpointError(name string, err error) {
	ArmFailpoint(name, func() {})
	fpMu.Lock()
	defer fpMu.Unlock()
	fpErrs[name] = err
}

// DisarmFailpoint removes the named site's action.
func DisarmFailpoint(name string) {
	fpMu.Lock()
	defer fpMu.Unlock()
	if _, ok := fpActions[name]; ok {
		delete(fpActions, name)
		delete(fpErrs, name)
		fpArmed.Add(-1)
	}
}

// DisarmAllFailpoints removes every armed action (test cleanup).
func DisarmAllFailpoints() {
	fpMu.Lock()
	defer fpMu.Unlock()
	clear(fpActions)
	clear(fpErrs)
	fpArmed.Store(0)
}

// Failpoint runs the named site's armed action, if any. It is exported so
// sibling packages hosting their own sites (the wal durability layer) share
// one registry with the query-path sites above.
func Failpoint(name string) { failpoint(name) }

// FailpointsArmed reports whether any site is armed, at the cost of one
// atomic load. A caller whose site needs a costlier path to fire at all (the
// wal splits a write around its site) takes that path only while it is true.
func FailpointsArmed() bool { return fpArmed.Load() != 0 }

// failpoint runs the site's armed action, if any.
func failpoint(name string) {
	if fpArmed.Load() == 0 {
		return
	}
	fpMu.Lock()
	action := fpActions[name]
	fpMu.Unlock()
	if action != nil {
		action()
	}
}

// failpointError runs the site's armed action, if any, and returns the error
// the site was armed with (nil unless armFailpointError armed it).
func failpointError(name string) error {
	if fpArmed.Load() == 0 {
		return nil
	}
	fpMu.Lock()
	action, err := fpActions[name], fpErrs[name]
	fpMu.Unlock()
	if action != nil {
		action()
	}
	return err
}
