package serve

import (
	"fmt"
	"testing"
	"time"
)

// fakeClock is an injectable time source for bucket refill tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time                   { return c.t }
func (c *fakeClock) advance(d time.Duration)          { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                        { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func withClock(a *admission, c *fakeClock) *admission { a.now = c.now; return a }

func mustDecision(t *testing.T, a *admission, client string, want Decision) func() {
	t.Helper()
	got, release := a.acquire(client)
	if got != want {
		t.Fatalf("acquire(%q) = %v, want %v (inflight=%d)", client, got, want, a.Inflight())
	}
	return release
}

func TestAdmissionUnlimitedByDefault(t *testing.T) {
	a := newAdmission(AdmissionConfig{})
	var releases []func()
	for i := 0; i < 100; i++ {
		releases = append(releases, mustDecision(t, a, "anyone", Admit))
	}
	for _, r := range releases {
		r()
	}
	if got := a.Inflight(); got != 0 {
		t.Fatalf("inflight after release = %d, want 0", got)
	}
}

func TestAdmissionTokenBucket(t *testing.T) {
	clk := newFakeClock()
	a := withClock(newAdmission(AdmissionConfig{ClientRate: 2, ClientBurst: 3}), clk)

	// Burst capacity admits exactly 3, then quota sheds.
	for i := 0; i < 3; i++ {
		mustDecision(t, a, "alice", Admit)()
	}
	mustDecision(t, a, "alice", ShedQuota)()

	// Buckets are per client: bob is unaffected by alice's exhaustion.
	mustDecision(t, a, "bob", Admit)()

	// Refill at 2/s: after 500ms exactly one token is back.
	clk.advance(500 * time.Millisecond)
	mustDecision(t, a, "alice", Admit)()
	mustDecision(t, a, "alice", ShedQuota)()

	// Refill caps at burst: a long idle period grants 3, not rate*dt.
	clk.advance(time.Hour)
	for i := 0; i < 3; i++ {
		mustDecision(t, a, "alice", Admit)()
	}
	mustDecision(t, a, "alice", ShedQuota)()
}

// A burst below one token is clamped to one, like the default burst: a bucket
// capped under a whole token would shed every request forever.
func TestAdmissionFractionalBurst(t *testing.T) {
	clk := newFakeClock()
	a := withClock(newAdmission(AdmissionConfig{ClientRate: 100, ClientBurst: 0.5}), clk)
	for i := 0; i < 100; i++ {
		mustDecision(t, a, "alice", Admit)()
		clk.advance(time.Second)
	}
	mustDecision(t, a, "alice", Admit)()
	mustDecision(t, a, "alice", ShedQuota)()
}

func TestAdmissionInflightBands(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInflight: 4, SoftInflight: 2})

	// Under the soft threshold: full service.
	r1 := mustDecision(t, a, "", Admit)
	r2 := mustDecision(t, a, "", Admit)
	// In the degraded band (soft < inflight <= hard).
	r3 := mustDecision(t, a, "", AdmitDegraded)
	r4 := mustDecision(t, a, "", AdmitDegraded)
	// Over the hard cap: shed, and the failed acquire must not leak a slot.
	mustDecision(t, a, "", ShedOverload)()
	if got := a.Inflight(); got != 4 {
		t.Fatalf("inflight after shed = %d, want 4", got)
	}

	// Releasing drops back through the bands: at 3 in flight the next
	// acquire lands at 4 (degraded band), at 1 in flight it lands at 2
	// (full service).
	r4()
	mustDecision(t, a, "", AdmitDegraded)()
	r3()
	r2()
	mustDecision(t, a, "", Admit)()
	r1()

	if got := a.Inflight(); got != 0 {
		t.Fatalf("inflight = %d, want 0", got)
	}
}

func TestAdmissionReleaseIdempotent(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInflight: 2})
	release := mustDecision(t, a, "", Admit)
	release()
	release() // double release must not underflow the window
	if got := a.Inflight(); got != 0 {
		t.Fatalf("inflight after double release = %d, want 0", got)
	}
}

// A stream of distinct client names keeps the bucket map bounded by the
// clients still refilling, and a sweep never forgets a client that is.
func TestAdmissionBucketsBounded(t *testing.T) {
	clk := newFakeClock()
	a := withClock(newAdmission(AdmissionConfig{ClientRate: 10, ClientBurst: 2}), clk)
	// alice empties her bucket; the waves below sweep around her while she
	// is still refilling.
	mustDecision(t, a, "alice", Admit)()
	mustDecision(t, a, "alice", Admit)()
	const waves, wave = 100, 1000
	peak := 0
	for w := 0; w < waves; w++ {
		for i := 0; i < wave; i++ {
			mustDecision(t, a, fmt.Sprintf("c%d-%d", w, i), Admit)()
			peak = max(peak, len(a.buckets))
		}
		if w == 0 {
			mustDecision(t, a, "alice", ShedQuota)()
		}
		// Long enough for a one-token debit to refill: the wave goes idle.
		clk.advance(200 * time.Millisecond)
	}
	// Each wave's clients refill before the next wave's sweep, so at most one
	// wave (and alice) is ever refilling: the map stays within twice that.
	if limit := 2 * (wave + 1); peak > limit {
		t.Fatalf("bucket map peaked at %d entries over %d distinct clients, want <= %d", peak, waves*wave, limit)
	}
}
