package wal

import (
	"fmt"
	"os"
	"sync"
	"time"

	"kwsc/internal/codec"
	"kwsc/internal/core"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/pager"
)

// Durable is a crash-safe DynamicORPKW: every insert and delete is written
// to the write-ahead log before it is applied and acknowledged, periodic
// checkpoints bound replay time, and Open recovers the exact acknowledged
// state after a crash. Safe for concurrent use: writers are serialized on an
// internal write mutex, while queries, snapshots, and the metrics-style
// accessors (Len, LastSeq, NumBuckets, Tombstones) run lock-free against the
// dynamic index's published copy-on-write state — they never wait on a
// mutation, a checkpoint, or an fsync.
type Durable struct {
	// mu is the WRITE lock. It covers log append + successor-state build +
	// atomic publish (plus checkpoint rotation and Close), which keeps the
	// WAL order identical to the publication order — the invariant snapshot
	// seq semantics rest on. It is never taken on the read path: a reader
	// observing state at seq S sees exactly the acked-WAL prefix [1, S].
	mu        sync.Mutex
	dir       string
	dim, k    int
	cfg       config
	idx       *core.DynamicORPKW
	log       *log
	seq       uint64 // sequence of the last logged record; guarded by mu
	sinceCkpt int
	closed    bool
	readOnly  bool // sealed replica state: direct Insert/Delete refused
	scratch   []byte
}

type config struct {
	bufferCap int
	policy    SyncPolicy
	interval  time.Duration
	autoCkpt  int
	build     []core.BuildOption
	paged     bool
	pagedOpts core.PagedBaseOptions
}

// Option configures Open.
type Option func(*config)

// WithSyncPolicy selects the fsync policy (default SyncEveryOp). Use
// WithSyncInterval to select SyncInterval with a custom period.
func WithSyncPolicy(p SyncPolicy) Option {
	return func(c *config) { c.policy = p }
}

// WithSyncInterval selects the SyncInterval policy with the given fsync
// period (non-positive keeps the 1s default).
func WithSyncInterval(d time.Duration) Option {
	return func(c *config) {
		c.policy = SyncInterval
		if d > 0 {
			c.interval = d
		}
	}
}

// WithBufferCap tunes the dynamic index's unindexed write buffer
// (0 keeps the core default).
func WithBufferCap(n int) Option {
	return func(c *config) { c.bufferCap = n }
}

// WithAutoCheckpoint checkpoints automatically after every n logged
// operations (0, the default, disables automatic checkpoints; Checkpoint
// remains available).
func WithAutoCheckpoint(n int) Option {
	return func(c *config) { c.autoCkpt = n }
}

// WithBuildOptions forwards construction options (parallelism, tracer,
// observability) to the underlying dynamic index and its bucket rebuilds.
func WithBuildOptions(opts ...core.BuildOption) Option {
	return func(c *config) { c.build = append(c.build, opts...) }
}

// WithPagedRecovery makes Open serve a KWCP2 checkpoint in place instead of
// decoding it: the file is mapped (or attached to a bounded pread buffer
// pool, per o) as the dynamic index's immutable bottom layer, so cold start
// is the map plus the WAL-tail replay — no full decode, no index rebuild —
// and the resident footprint is bounded by o.CapPages when o.NoMmap is set.
func WithPagedRecovery(o core.PagedBaseOptions) Option {
	return func(c *config) { c.paged, c.pagedOpts = true, o }
}

// Open recovers (or initializes) a durable dynamic index rooted at dir: it
// loads the newest valid checkpoint, replays the write-ahead log after it —
// truncating a torn tail, refusing mid-log corruption with ErrCorrupt — and
// attaches the journal so subsequent mutations are logged before they are
// acknowledged. dim and k must match any existing state in dir.
func Open(dir string, dim, k int, opts ...Option) (*Durable, error) {
	cfg := config{policy: SyncEveryOp, interval: time.Second}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	rec, err := recoverDir(dir, dim, k, cfg)
	if err != nil {
		return nil, err
	}
	l, err := openLog(rec.segPath, cfg.policy, cfg.interval)
	if err != nil {
		if b := rec.idx.Base(); b != nil {
			b.Close()
		}
		return nil, err
	}
	d := &Durable{
		dir: dir, dim: dim, k: k, cfg: cfg,
		idx: rec.idx, log: l, seq: rec.lastSeq,
	}
	d.idx.SetJournal((*journalHook)(d))
	return d, nil
}

// journalHook adapts Durable to core.Journal without exporting LogInsert /
// LogDelete on the public type. The hooks run inside idx mutations while
// d.mu is already held by the public entry point.
type journalHook Durable

func (j *journalHook) LogInsert(handle int64, obj dataset.Object) error {
	d := (*Durable)(j)
	d.scratch = appendRecord(d.scratch[:0], &record{
		seq: d.seq + 1, op: opInsert, handle: handle, obj: obj,
	})
	if err := d.log.append(d.scratch); err != nil {
		return fmt.Errorf("wal: logging insert: %w", err)
	}
	d.seq++
	return nil
}

func (j *journalHook) LogDelete(handle int64) error {
	d := (*Durable)(j)
	d.scratch = appendRecord(d.scratch[:0], &record{
		seq: d.seq + 1, op: opDelete, handle: handle,
	})
	if err := d.log.append(d.scratch); err != nil {
		return fmt.Errorf("wal: logging delete: %w", err)
	}
	d.seq++
	return nil
}

// Insert adds an object and returns its stable handle. The handle is valid
// — and the operation durable per the sync policy — exactly when the error
// is nil. If an automatic checkpoint was due and failed, the returned error
// wraps the checkpoint failure while the insert itself remains applied and
// logged; errors.Is(err, ErrCheckpoint) distinguishes that case.
func (d *Durable) Insert(obj dataset.Object) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.readOnly {
		return 0, ErrReadOnly
	}
	return d.insertLocked(obj)
}

// Delete removes the object with the given handle; deleting an unknown or
// already-deleted handle returns (false, nil) without logging anything.
func (d *Durable) Delete(handle int64) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.readOnly {
		return false, ErrReadOnly
	}
	return d.deleteLocked(handle)
}

// SetReadOnly seals (or unseals) the index against direct mutation:
// Insert/Delete return ErrReadOnly while the replay path stays open.
// Replication followers seal their local state so embedders cannot
// accidentally diverge a replica from its primary.
func (d *Durable) SetReadOnly(ro bool) {
	d.mu.Lock()
	d.readOnly = ro
	d.mu.Unlock()
}

// ReplayInsert applies a shipped primary record through the normal
// log-before-ack write path, bypassing the read-only seal. It exists for
// replication appliers only — calling it directly on a replica diverges it
// from its primary exactly the way the seal prevents.
func (d *Durable) ReplayInsert(obj dataset.Object) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.insertLocked(obj)
}

// ReplayDelete is ReplayInsert's delete counterpart.
func (d *Durable) ReplayDelete(handle int64) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.deleteLocked(handle)
}

func (d *Durable) insertLocked(obj dataset.Object) (int64, error) {
	if d.closed {
		return 0, ErrClosed
	}
	h, err := d.idx.Insert(obj)
	if err != nil {
		return 0, err
	}
	return h, d.noteOpLocked()
}

func (d *Durable) deleteLocked(handle int64) (bool, error) {
	if d.closed {
		return false, ErrClosed
	}
	ok, err := d.idx.Delete(handle)
	if err != nil || !ok {
		return ok, err
	}
	return true, d.noteOpLocked()
}

// ErrCheckpoint wraps automatic-checkpoint failures reported alongside an
// otherwise successful mutation.
var ErrCheckpoint = errorString("wal: automatic checkpoint failed")

func (d *Durable) noteOpLocked() error {
	if d.cfg.autoCkpt <= 0 {
		return nil
	}
	d.sinceCkpt++
	if d.sinceCkpt < d.cfg.autoCkpt {
		return nil
	}
	if err := d.checkpointLocked(); err != nil {
		return fmt.Errorf("%w: %w", ErrCheckpoint, err)
	}
	return nil
}

// Checkpoint snapshots the live dataset to an atomically renamed checkpoint
// file, rotates the log so the snapshot supersedes every previous segment,
// and prunes superseded files. On failure the previous checkpoint and log
// remain authoritative — a half-written checkpoint is never loaded.
func (d *Durable) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.checkpointLocked()
}

func (d *Durable) checkpointLocked() error {
	start := time.Now()
	// Everything logged so far must be on disk before the checkpoint that
	// claims to supersede it exists.
	if err := d.log.sync(); err != nil {
		return err
	}
	handles, objs, err := d.idx.SnapshotNow().Entries()
	if err != nil {
		return fmt.Errorf("wal: snapshotting for checkpoint: %w", err)
	}
	snap := &codec.Snapshot{
		K: d.k, Dim: d.dim, LastSeq: d.seq, NextHandle: d.idx.NextHandle(),
		Handles: handles, Objs: objs,
	}
	if err := writeCheckpointFile(d.dir, snap); err != nil {
		return err
	}
	// Rotate: new appends go to a fresh segment starting after the
	// checkpoint. When no ops were logged since the last rotation the
	// active segment already is that fresh segment.
	newPath := segmentPath(d.dir, d.seq+1)
	if newPath != d.log.path {
		if err := d.log.close(); err != nil {
			return err
		}
		l, err := openLog(newPath, d.cfg.policy, d.cfg.interval)
		if err != nil {
			return err
		}
		d.log = l
		if err := syncDir(d.dir); err != nil {
			return err
		}
	}
	d.pruneLocked()
	d.sinceCkpt = 0
	walCheckpoints.Inc()
	walCheckpointNs.Observe(int64(time.Since(start)))
	return nil
}

// pruneLocked removes files the latest checkpoint supersedes: older
// checkpoints and every segment other than the active one (segments rotate
// at checkpoints, so all inactive segments hold only superseded records).
// Checkpoints go through pager.Retire instead of a bare unlink: a superseded
// snapshot the paged base (or any reader) still has mapped is marked obsolete
// and deleted on its last unref, never under the reader. Failures are
// ignored — recovery handles leftover files.
func (d *Durable) pruneLocked() {
	des, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, de := range des {
		name := de.Name()
		if s, ok := parseSeq(name, "checkpoint-", ".ckpt"); ok && s < d.seq {
			pager.Retire(checkpointPath(d.dir, s))
		}
		if s, ok := parseSeq(name, "wal-", ".log"); ok {
			if p := segmentPath(d.dir, s); p != d.log.path {
				os.Remove(p)
			}
		}
	}
}

// Close fsyncs and closes the log, and releases the paged base's checkpoint
// mapping when recovery attached one. Further mutations fail with ErrClosed;
// the on-disk state reopens with Open. With a paged base, queries must have
// drained before Close — their reads would fault against the released
// mapping; without one, the in-memory state outlives the log and queries
// keep working.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	d.idx.SetJournal(nil)
	err := d.log.close()
	if b := d.idx.Base(); b != nil {
		if cerr := b.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Query reports (handle, object) for every live object in q whose document
// contains all k keywords; see core.DynamicORPKW.Query. Queries are
// lock-free: they run against the state published by the last acknowledged
// mutation and never wait on writers, checkpoints, or fsyncs. (Without a
// paged base they also keep working after Close — the in-memory state
// outlives the log; with one, Close releases the mapping they read from.)
func (d *Durable) Query(q *geom.Rect, ws []dataset.Keyword, report func(handle int64, obj *dataset.Object)) (core.QueryStats, error) {
	return d.idx.Query(q, ws, report)
}

// QueryWith is Query under explicit options (limits, budgets, deadlines).
func (d *Durable) QueryWith(q *geom.Rect, ws []dataset.Keyword, opts core.QueryOpts, report func(handle int64, obj *dataset.Object)) (core.QueryStats, error) {
	return d.idx.QueryWith(q, ws, opts, report)
}

// Collect is Query returning the handles.
func (d *Durable) Collect(q *geom.Rect, ws []dataset.Keyword) ([]int64, core.QueryStats, error) {
	return d.idx.Collect(q, ws)
}

// Snapshot pins the current acknowledged state for repeatable reads: queries
// against the returned view answer identically no matter how many mutations
// are applied afterwards, and its Seq() is the WAL sequence number of the
// last acknowledged record it includes — the view is exactly the acked-WAL
// prefix [1, Seq()]. Pinning takes one atomic load and no locks.
func (d *Durable) Snapshot() *core.DynSnapshot {
	return d.idx.SnapshotNow()
}

// EstimateWork bounds the work units of a query for ws against the current
// state; see core.DynamicORPKW.EstimateWork.
func (d *Durable) EstimateWork(ws []dataset.Keyword) int64 { return d.idx.EstimateWork(ws) }

// Len returns the number of live objects.
func (d *Durable) Len() int { return d.idx.Len() }

// K returns the query keyword arity.
func (d *Durable) K() int { return d.k }

// Dim returns the point dimensionality.
func (d *Durable) Dim() int { return d.dim }

// LastSeq returns the sequence number of the last acknowledged operation —
// the length of the operation history a recovery of the current state would
// replay to. It reads the published state (no lock), so a mutation in flight
// is not counted until it is applied and acknowledged.
func (d *Durable) LastSeq() uint64 { return d.idx.Seq() }

// NumBuckets exposes the Bentley–Saxe occupancy for instrumentation.
func (d *Durable) NumBuckets() int { return d.idx.NumBuckets() }

// Tombstones exposes the deleted-but-unpurged entry count.
func (d *Durable) Tombstones() int { return d.idx.Tombstones() }

// Sync forces an fsync of the log regardless of policy, upgrading every
// previously acknowledged op to full durability.
func (d *Durable) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.log.sync()
}
