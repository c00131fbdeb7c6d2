package repl

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kwsc/internal/core"
	"kwsc/internal/obs"
	"kwsc/internal/pager"
	"kwsc/internal/wal"
)

// FPBootstrap fires after the checkpoint download lands but before the
// follower's durable state opens over it (see core.ArmFailpoint). Each
// shipped record passes wal.FPReplay, the failpoint of the one apply rule
// recovery shares — arming it with a panic kills a follower mid-replay.
const FPBootstrap = "repl/bootstrap"

// ErrDiverged reports that a shipped record could not be replayed exactly:
// the follower's state no longer matches the primary's logged history (a
// sequence gap, an insert that would produce a different handle, or a
// delete of a dead handle). A diverged follower stops applying rather than
// serve a wrong history; the operator must re-seed it from a checkpoint.
var ErrDiverged = wal.ErrDiverged

// FollowerConfig configures a read replica of one shipped durable directory.
type FollowerConfig struct {
	// Dir is the follower's own durable directory. Its WAL journals every
	// applied record, so a crash resumes from local recovery at the last
	// applied sequence — the checkpoint is only downloaded when Dir is empty
	// or the primary reports the tail pruned.
	Dir string
	// Primary is the base URL of the primary's shipper surface (the prefix
	// Shipper.Handler is mounted under), e.g. http://host:8080/repl/v1/shard/000.
	Primary string
	Dim, K  int

	// Shard labels this follower's applied-seq gauge. Defaults to
	// filepath.Base(Dir).
	Shard string
	// PollInterval is the tail poll cadence while healthy (default 50ms).
	// It also seeds the jittered exponential backoff after a failed poll,
	// which maxBackoffPolls caps.
	PollInterval time.Duration
	// Client issues the shipping requests. Defaults to a client with a 5s
	// timeout so a stalled shipper turns into a retry, not a hung follower.
	Client *http.Client
	// WALOptions are passed through to the follower's local wal.Open.
	WALOptions []wal.Option
}

func (c *FollowerConfig) withDefaults() FollowerConfig {
	cc := *c
	if cc.Shard == "" {
		cc.Shard = filepath.Base(cc.Dir)
	}
	if cc.PollInterval <= 0 {
		cc.PollInterval = 50 * time.Millisecond
	}
	if cc.Client == nil {
		cc.Client = &http.Client{Timeout: 5 * time.Second}
	}
	return cc
}

// Follower is a continuously-tailing read replica. Its queries go through the
// embedded durable index and therefore see exactly the acked prefix
// [1, AppliedSeq()] of the primary's history.
type Follower struct {
	cfg   FollowerConfig
	gauge *obs.Gauge

	mu sync.Mutex // guards d across re-bootstrap (410) transitions
	d  *wal.Durable

	primarySeq atomic.Uint64 // newest LastSeq the primary has reported
	caughtUpAt atomic.Int64  // unixnano of the report the follower last fully applied
	bootstraps atomic.Uint64

	stop    chan struct{}
	done    chan struct{}
	running bool // whether run() was launched (StartFollower)
	// LastErr is best-effort diagnostics for health endpoints.
	lastErr atomic.Pointer[string]
}

// OpenFollower seeds (if needed) and opens a follower's local state without
// starting the tail loop; callers drive catch-up with Poll or Run. A Dir that
// already holds state is recovered locally — the checkpoint is NOT
// re-downloaded.
func OpenFollower(cfg FollowerConfig) (*Follower, error) {
	cfg = (&cfg).withDefaults()
	f := &Follower{
		cfg:   cfg,
		gauge: appliedSeqGauge(cfg.Shard),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	has, err := wal.DirHasState(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if !has {
		if err := f.downloadCheckpoint(); err != nil {
			return nil, err
		}
	}
	if err := f.openLocked(); err != nil {
		return nil, err
	}
	return f, nil
}

// StartFollower opens a follower and starts its tail loop.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	f, err := OpenFollower(cfg)
	if err != nil {
		return nil, err
	}
	f.running = true
	go f.run()
	return f, nil
}

// openLocked (re)opens the durable index over cfg.Dir and aligns the
// applied-seq gauge with whatever local recovery produced.
func (f *Follower) openLocked() error {
	d, err := wal.Open(f.cfg.Dir, f.cfg.Dim, f.cfg.K, f.cfg.WALOptions...)
	if err != nil {
		return err
	}
	d.SetReadOnly(true) // only the replay applier may advance replica state
	f.mu.Lock()
	f.d = d
	f.mu.Unlock()
	f.gauge.Set(int64(d.Seq()))
	return nil
}

// downloadCheckpoint fetches the primary's newest checkpoint into cfg.Dir
// under its canonical name, fully verifying it before it can be trusted. A
// primary with no checkpoint yet (204) leaves the directory empty — the
// follower simply replays the whole tail from seq 1.
func (f *Follower) downloadCheckpoint() error {
	replBootstraps.Inc()
	f.bootstraps.Add(1)
	resp, err := f.cfg.Client.Get(f.cfg.Primary + "/checkpoint")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return os.MkdirAll(f.cfg.Dir, 0o755)
	case http.StatusOK:
	default:
		return fmt.Errorf("repl: checkpoint fetch: %s", respError(resp))
	}
	seq, err := strconv.ParseUint(resp.Header.Get(HdrSeq), 10, 64)
	if err != nil {
		return fmt.Errorf("repl: checkpoint response missing %s header", HdrSeq)
	}
	if err := os.MkdirAll(f.cfg.Dir, 0o755); err != nil {
		return err
	}
	// The primary's own checkpoint landing: tmp + fsync + validate + rename
	// + directory fsync, so a crashed or refused download never leaves a
	// file that recovery would consider, and a landed one survives a power
	// cut. Recovery finds a checkpoint by its name, so the name must be the
	// sequence the validated file supersedes: a header that disagrees is
	// refused too.
	final := filepath.Join(f.cfg.Dir, wal.CheckpointFileName(seq))
	err = pager.WriteAtomic(final,
		func(tf *os.File) error {
			_, err := io.Copy(tf, resp.Body)
			return err
		},
		func(tmp string) error {
			lastSeq, err := wal.ValidateCheckpointFile(tmp)
			if err == nil && lastSeq != seq {
				err = fmt.Errorf("it supersedes seq %d, the %s header says %d", lastSeq, HdrSeq, seq)
			}
			if err != nil {
				replCRCRefusals.Inc()
				return fmt.Errorf("repl: downloaded checkpoint refused: %w", err)
			}
			return nil
		})
	if err != nil {
		return err
	}
	core.Failpoint(FPBootstrap)
	return nil
}

// Poll performs one tail fetch-and-apply round trip, returning the number of
// records applied. It is the unit the Run loop repeats and the handle tests
// use for deterministic catch-up.
func (f *Follower) Poll() (applied int, err error) {
	from := f.AppliedSeq() + 1
	resp, err := f.cfg.Client.Get(fmt.Sprintf("%s/wal?from=%d", f.cfg.Primary, from))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	reportTime := time.Now()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// The primary pruned our position: re-seed from its newest
		// checkpoint, then resume tailing from the recovered sequence.
		return 0, f.reseed()
	default:
		return 0, fmt.Errorf("repl: tail fetch: %s", respError(resp))
	}
	reported, err := strconv.ParseUint(resp.Header.Get(HdrLastSeq), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("repl: tail response missing %s header", HdrLastSeq)
	}
	f.primarySeq.Store(reported)
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	d := f.Durable()
	if d == nil {
		return 0, wal.ErrClosed
	}
	applied, torn, err := d.ApplyShipped(body)
	replFramesApplied.Add(int64(applied))
	f.gauge.Set(int64(d.Seq()))
	if err != nil {
		if errors.Is(err, wal.ErrCorrupt) {
			replCRCRefusals.Inc()
		}
		return applied, err
	}
	if torn {
		replTornRetries.Inc() // truncated transfer: re-request next poll
	}
	a := d.Seq()
	if reported > a {
		replLagSeq.Observe(int64(reported - a))
	} else {
		replLagSeq.Observe(0)
		f.caughtUpAt.Store(reportTime.UnixNano())
	}
	return applied, nil
}

// reseed handles a pruned tail: download and validate the primary's newest
// checkpoint beside the open local state, then close that state and reopen.
// Local recovery loads the newer checkpoint and skips any stale local
// segment records at or below its base. A download that fails lands nothing
// and leaves the follower serving its acked prefix.
func (f *Follower) reseed() error {
	if err := f.downloadCheckpoint(); err != nil {
		return err
	}
	f.mu.Lock()
	d := f.d
	f.d = nil
	f.mu.Unlock()
	if d != nil {
		if err := d.Close(); err != nil {
			return err
		}
	}
	return f.openLocked()
}

// run tails the primary until Close, backing off with capped jittered
// exponential delays while the primary is unreachable or refusing.
func (f *Follower) run() {
	defer close(f.done)
	backoff := time.Duration(0)
	fails := 0
	for {
		wait := f.cfg.PollInterval
		if backoff > 0 {
			wait = backoff
		}
		select {
		case <-f.stop:
			return
		case <-time.After(wait):
		}
		n, err := f.Poll()
		switch {
		case err == nil:
			backoff, fails = 0, 0
			if n > 0 {
				// More may be waiting (batch cap); poll again immediately.
				backoff = time.Nanosecond
			}
		case errors.Is(err, ErrDiverged) || errors.Is(err, wal.ErrCorrupt):
			// Refusal is terminal for the applier: divergence and corruption
			// do not heal with retries. The follower keeps serving its acked
			// prefix; Health surfaces the error.
			f.storeErr(err)
			return
		default:
			f.storeErr(err)
			replRetries.Inc()
			fails++
			backoff = jitteredBackoff(f.cfg.PollInterval, fails)
		}
	}
}

// maxBackoffPolls caps a failing follower's backoff at this many poll
// intervals: 3s at the default 50ms.
const maxBackoffPolls = 60

// jitteredBackoff returns poll·2^(fails-1) capped at maxBackoffPolls polls,
// uniformly jittered over [d/2, d) so a fleet of followers does not thunder
// back in lockstep.
func jitteredBackoff(poll time.Duration, fails int) time.Duration {
	d, max := poll, maxBackoffPolls*poll
	for i := 1; i < fails && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rand.Int63n(int64(half)))
}

func (f *Follower) storeErr(err error) {
	s := err.Error()
	f.lastErr.Store(&s)
}

// AppliedSeq reports the last primary sequence this follower has applied —
// its local index's Seq(), 0 while no local state is open: its queries
// reflect exactly the prefix [1, AppliedSeq()].
func (f *Follower) AppliedSeq() uint64 {
	if d := f.Durable(); d != nil {
		return d.Seq()
	}
	return 0
}

// PrimarySeq reports the newest LastSeq the primary has reported to this
// follower; AppliedSeq lagging it is the replica's lag in operations.
func (f *Follower) PrimarySeq() uint64 { return f.primarySeq.Load() }

// Bootstraps reports how many checkpoint downloads this follower has
// performed (fresh seed + pruned-tail reseeds).
func (f *Follower) Bootstraps() uint64 { return f.bootstraps.Load() }

// Staleness reports the age of the follower's view: time since the last
// primary report it had fully applied. A follower that has never caught up
// reports a negative duration-free sentinel of -1.
func (f *Follower) Staleness() time.Duration {
	at := f.caughtUpAt.Load()
	if at == 0 {
		return -1
	}
	return time.Since(time.Unix(0, at))
}

// LastErr returns the most recent tail-loop error ("" when healthy).
func (f *Follower) LastErr() string {
	if p := f.lastErr.Load(); p != nil {
		return *p
	}
	return ""
}

// Durable exposes the follower's local index for read-only serving. It is
// sealed: follower state is owned by the shipped log, so Insert/Delete
// through it return wal.ErrReadOnly instead of diverging the replica.
func (f *Follower) Durable() *wal.Durable {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.d
}

// Close stops the tail loop and closes local state. The local WAL retains
// every applied record, so a reopened follower resumes from AppliedSeq.
func (f *Follower) Close() error {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	if f.running {
		<-f.done
	}
	f.mu.Lock()
	d := f.d
	f.d = nil
	f.mu.Unlock()
	if d != nil {
		return d.Close()
	}
	return nil
}

func respError(resp *http.Response) string {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	return fmt.Sprintf("status %d: %s", resp.StatusCode, string(b))
}
