package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"kwsc/internal/obs"
)

// AdmissionConfig bounds the work the server accepts. The zero value admits
// everything at full service.
type AdmissionConfig struct {
	// MaxInflight is the global hard cap on concurrently executing
	// requests; beyond it requests are shed with 429 (0 = unlimited).
	MaxInflight int
	// SoftInflight is the degrade threshold: with more than this many
	// requests in flight (but still under MaxInflight), queries are
	// admitted in degraded mode — Config.DegradedNodeBudget per shard, so
	// every shard kind stops early with its prefix-correct partial answer
	// (0 = no degraded band).
	SoftInflight int
	// ClientRate refills each client's token bucket at this many requests
	// per second (0 = no per-client quota).
	ClientRate float64
	// ClientBurst is each bucket's capacity (0 with ClientRate > 0 defaults
	// to ClientRate). Any burst below 1 counts as 1: a bucket that never
	// holds a whole token would shed every request.
	ClientBurst float64
}

// Decision classifies one admission check.
type Decision int

const (
	// Admit serves the request at full fidelity.
	Admit Decision = iota
	// AdmitDegraded serves the request in degraded mode.
	AdmitDegraded
	// ShedQuota rejects: the client's token bucket is empty.
	ShedQuota
	// ShedOverload rejects: the global in-flight cap is reached.
	ShedOverload
)

func (d Decision) String() string {
	switch d {
	case Admit:
		return "admit"
	case AdmitDegraded:
		return "degraded"
	case ShedQuota:
		return "shed-quota"
	default:
		return "shed-overload"
	}
}

// Shed reports whether the decision rejects the request.
func (d Decision) Shed() bool { return d == ShedQuota || d == ShedOverload }

var (
	admAdmitted  = obs.Default().Counter(`kwscd_admitted_total{mode="full"}`)
	admDegraded  = obs.Default().Counter(`kwscd_admitted_total{mode="degraded"}`)
	admShedQuota = obs.Default().Counter(`kwscd_shed_total{reason="quota"}`)
	admShedLoad  = obs.Default().Counter(`kwscd_shed_total{reason="overload"}`)
	admInflight  = obs.Default().Gauge(`kwscd_inflight`)
)

// bucket is one client's token bucket; guarded by admission.mu.
type bucket struct {
	tokens float64
	last   time.Time
}

// admission is the server's front door: per-client token buckets plus the
// global in-flight window. Safe for concurrent use.
type admission struct {
	cfg      AdmissionConfig
	now      func() time.Time // injectable clock for tests
	inflight atomic.Int64

	mu      sync.Mutex
	buckets map[string]*bucket
	swept   int // len(buckets) after the last sweep
}

func newAdmission(cfg AdmissionConfig) *admission {
	return &admission{cfg: cfg, now: time.Now, buckets: make(map[string]*bucket)}
}

// acquire admits or rejects one request for the given client. When the
// decision is not a shed, the caller must invoke release exactly once after
// the request finishes; on shed decisions release is a no-op.
func (a *admission) acquire(client string) (Decision, func()) {
	if !a.takeToken(client) {
		admShedQuota.Inc()
		return ShedQuota, func() {}
	}
	in := a.inflight.Add(1)
	if a.cfg.MaxInflight > 0 && in > int64(a.cfg.MaxInflight) {
		a.inflight.Add(-1)
		admShedLoad.Inc()
		return ShedOverload, func() {}
	}
	admInflight.Set(in)
	var done atomic.Bool
	release := func() {
		if done.CompareAndSwap(false, true) {
			admInflight.Set(a.inflight.Add(-1))
		}
	}
	if a.cfg.SoftInflight > 0 && in > int64(a.cfg.SoftInflight) {
		admDegraded.Inc()
		return AdmitDegraded, release
	}
	admAdmitted.Inc()
	return Admit, release
}

// takeToken refills and debits the client's bucket; true = token granted.
func (a *admission) takeToken(client string) bool {
	if a.cfg.ClientRate <= 0 {
		return true
	}
	burst := a.cfg.ClientBurst
	if burst <= 0 {
		burst = a.cfg.ClientRate
	}
	burst = max(burst, 1)
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.buckets[client]
	if !ok {
		if len(a.buckets) >= 2*max(a.swept, sweepMin) {
			a.sweep(now, burst)
		}
		b = &bucket{tokens: burst, last: now}
		a.buckets[client] = b
	}
	a.refill(b, now, burst)
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// sweepMin is the smallest map a sweep runs on, so a handful of clients never
// pays for one.
const sweepMin = 64

// refill credits b with the tokens earned since its last refill, capped at
// burst.
func (a *admission) refill(b *bucket, now time.Time, burst float64) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = min(burst, b.tokens+dt*a.cfg.ClientRate)
		b.last = now
	}
}

// sweep drops every bucket that has refilled to burst: such a bucket admits
// exactly what a fresh one would, so forgetting its client changes no
// decision. It runs when the map has doubled since the last sweep, so its
// cost is amortized over the clients added in between and the map stays
// within twice the clients whose buckets are still refilling.
func (a *admission) sweep(now time.Time, burst float64) {
	for c, b := range a.buckets {
		if a.refill(b, now, burst); b.tokens >= burst {
			delete(a.buckets, c)
		}
	}
	a.swept = len(a.buckets)
}

// Inflight returns the number of currently executing requests.
func (a *admission) Inflight() int64 { return a.inflight.Load() }
