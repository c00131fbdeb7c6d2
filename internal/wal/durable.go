package wal

import (
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"time"

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
// accessors (Len, Seq, NumBuckets, Tombstones) run lock-free against the
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
	sinceCkpt int
	ckpt      *pendingCkpt // the checkpoint being written, nil when none
	closed    bool
	readOnly  bool // sealed replica state: direct Insert/Delete refused
	scratch   []byte
}

type config struct {
	bufferCap int
	policy    SyncPolicy
	interval  time.Duration
	autoCkpt  int
	paged     bool
	pagedOpts core.PagedBaseOptions
}

// Option configures Open.
type Option func(*config)

// WithSyncPolicy selects the fsync policy (default SyncEveryOp; SyncInterval
// fsyncs once a second).
func WithSyncPolicy(p SyncPolicy) Option {
	return func(c *config) { c.policy = p }
}

// WithBufferCap tunes the dynamic index's unindexed write buffer
// (0 keeps the core default).
func WithBufferCap(n int) Option {
	return func(c *config) { c.bufferCap = n }
}

// WithAutoCheckpoint checkpoints automatically after every n logged
// operations (0, the default, disables automatic checkpoints; Checkpoint
// remains available). The operation that triggers one syncs the log, pins
// the state and rotates the log; the checkpoint file is written and the
// files it supersedes pruned in the background, and the next trigger waits
// for it, so at most one is in flight. Its failure is reported by the next
// trigger, Checkpoint or Close, wrapped in ErrCheckpoint.
func WithAutoCheckpoint(n int) Option {
	return func(c *config) { c.autoCkpt = n }
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
	idx, segPath, err := recoverDir(dir, dim, k, cfg)
	if err != nil {
		return nil, err
	}
	l, err := openLog(segPath, cfg.policy, cfg.interval)
	if err != nil {
		if b := idx.Base(); b != nil {
			b.Close()
		}
		return nil, err
	}
	d := &Durable{
		dir: dir, dim: dim, k: k, cfg: cfg,
		idx: idx, log: l,
	}
	d.idx.SetJournal((*journalHook)(d))
	return d, nil
}

// journalHook adapts Durable to core.Journal without exporting LogInsert /
// LogDelete on the public type. The hooks run inside idx mutations while
// d.mu is already held by the public entry point, before the mutation is
// published, so the record's seq is the one after idx.Seq().
type journalHook Durable

func (j *journalHook) LogInsert(handle int64, obj dataset.Object) error {
	d := (*Durable)(j)
	d.scratch = appendRecord(d.scratch[:0], &record{
		seq: d.idx.Seq() + 1, op: opInsert, handle: handle, obj: obj,
	})
	if err := d.log.append(d.scratch); err != nil {
		return fmt.Errorf("wal: logging insert: %w", err)
	}
	return nil
}

func (j *journalHook) LogDelete(handle int64) error {
	d := (*Durable)(j)
	d.scratch = appendRecord(d.scratch[:0], &record{
		seq: d.idx.Seq() + 1, op: opDelete, handle: handle,
	})
	if err := d.log.append(d.scratch); err != nil {
		return fmt.Errorf("wal: logging delete: %w", err)
	}
	return nil
}

// Insert adds an object and returns its stable handle. The handle is valid
// — and the operation durable per the sync policy — exactly when the error
// is nil or wraps ErrCheckpoint. An insert that triggers an automatic
// checkpoint reports the failure of the previous one, whose file was written
// in the background, or of starting its own; the insert itself remains
// applied and logged, and errors.Is(err, ErrCheckpoint) distinguishes that
// case.
func (d *Durable) Insert(obj dataset.Object) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.readOnly {
		return 0, ErrReadOnly
	}
	if d.closed {
		return 0, ErrClosed
	}
	h, err := d.idx.Insert(obj)
	if err != nil {
		return 0, err
	}
	return h, d.noteOpLocked()
}

// Delete removes the object with the given handle; deleting an unknown or
// already-deleted handle returns (false, nil) without logging anything.
func (d *Durable) Delete(handle int64) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.readOnly {
		return false, ErrReadOnly
	}
	if d.closed {
		return false, ErrClosed
	}
	ok, err := d.idx.Delete(handle)
	if err != nil || !ok {
		return ok, err
	}
	return true, d.noteOpLocked()
}

// SetReadOnly seals (or unseals) the index against direct mutation:
// Insert/Delete return ErrReadOnly while ApplyShipped stays open.
// Replication followers seal their local state so embedders cannot
// accidentally diverge a replica from its primary.
func (d *Durable) SetReadOnly(ro bool) {
	d.mu.Lock()
	d.readOnly = ro
	d.mu.Unlock()
}

// ApplyShipped applies a batch of a primary's log frames, shipped verbatim,
// in order: it walks them with the reader recovery uses and applies each
// record by the same rule (apply), under the write lock, through the
// journaled write path — each record is logged locally before it is
// acknowledged — and past the read-only seal. It exists for replication
// appliers only: calling it on a replica with records that did not come
// from its primary diverges it exactly the way the seal prevents.
//
// applied counts the records applied. torn reports a last frame cut short,
// which the caller re-requests; it is not an error. A frame that fails its
// checksum or does not decode stops the batch with ErrCorrupt, and a record
// that does not replay exactly with ErrDiverged, both before it is applied.
func (d *Durable) ApplyShipped(frames []byte) (applied int, torn bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, false, ErrClosed
	}
	fr := frameReader{data: frames}
	for {
		r, _, ok := fr.next()
		if !ok {
			break
		}
		if err := apply(d.idx, &r, ErrDiverged); err != nil {
			return applied, false, err
		}
		applied++
		if err := d.noteOpLocked(); err != nil {
			return applied, false, err
		}
	}
	switch {
	case errors.Is(fr.damage, errTorn):
		return applied, true, nil
	case fr.damage != nil:
		return applied, false, fmt.Errorf("wal: shipped frame at offset %d: %w", fr.off, fr.damage)
	}
	return applied, false, nil
}

// ErrCheckpoint wraps a checkpoint failure reported beside an otherwise
// successful call. An automatic checkpoint writes its file in the
// background, so its failure (a recovered panic included, as a
// *core.PanicError) is reported by the next call that waits for it: the next
// triggering Insert, Delete or ApplyShipped, Checkpoint, or Close. A
// mutation that reports it stays applied and logged.
var ErrCheckpoint = errorString("wal: automatic checkpoint failed")

func (d *Durable) noteOpLocked() error {
	if d.cfg.autoCkpt <= 0 {
		return nil
	}
	d.sinceCkpt++
	if d.sinceCkpt < d.cfg.autoCkpt {
		return nil
	}
	return d.checkpointLocked(false)
}

// Checkpoint pins the live state, rotates the log past it, writes the state
// to an atomically renamed checkpoint file and then prunes the files it
// supersedes: the routine an automatic checkpoint runs, waited for. An
// automatic checkpoint still in flight is waited for first, and its failure
// comes back wrapped in ErrCheckpoint. On failure the previous checkpoint
// and log remain authoritative — a half-written checkpoint is never loaded.
func (d *Durable) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.checkpointLocked(true)
}

// pendingCkpt is a checkpoint whose log is rotated and whose file is being
// written off the write lock. done is closed once the file has landed and
// the files it supersedes are pruned, or once it failed with err.
type pendingCkpt struct {
	done chan struct{}
	err  error
}

// checkpointLocked waits for the checkpoint in flight, if any, and starts
// the next one: it syncs the log, pins the state at seq S and rotates the log
// to wal-<S+1>.log under the write lock, and leaves the gather, encode,
// landing and prune to a goroutine of their own. With wait it then waits for
// that goroutine too (Checkpoint). The previous checkpoint's failure comes
// back wrapped in ErrCheckpoint, and so does this one's unless wait is set:
// Checkpoint returns its own failure as it is.
func (d *Durable) checkpointLocked(wait bool) error {
	prev := wrapCheckpointErr(d.awaitCheckpointLocked())
	err := d.startCheckpointLocked()
	switch {
	case err == nil && wait:
		err = d.awaitCheckpointLocked()
	case !wait:
		err = wrapCheckpointErr(err)
	}
	if prev == nil {
		return err
	}
	return errors.Join(prev, err)
}

func wrapCheckpointErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrCheckpoint, err)
}

// awaitCheckpointLocked waits for the checkpoint in flight, if any, and
// returns its failure. At most one is in flight: every start waits here
// first, which is also the back-pressure on a writer that outruns them.
func (d *Durable) awaitCheckpointLocked() error {
	c := d.ckpt
	if c == nil {
		return nil
	}
	<-c.done
	d.ckpt = nil
	return c.err
}

// startCheckpointLocked is a checkpoint's part under the write lock. A
// failure here leaves sinceCkpt as it was, so the next logged op retries.
func (d *Durable) startCheckpointLocked() error {
	// Everything logged so far must be on disk before the checkpoint that
	// claims to supersede it exists.
	if err := d.log.sync(); err != nil {
		return err
	}
	start := time.Now()
	pin := d.idx.SnapshotNow()
	seq := pin.Seq()
	snap := &core.Snapshot{K: d.k, Dim: d.dim, LastSeq: seq, NextHandle: d.idx.NextHandle()}
	// Rotate: new appends go to a fresh segment starting after the pin, so
	// every segment the checkpoint supersedes starts at or before seq. When
	// no ops were logged since the last rotation the active segment already
	// is that fresh segment.
	if newPath := segmentPath(d.dir, seq+1); newPath != d.log.path {
		l, err := openLog(newPath, d.cfg.policy, d.cfg.interval)
		if err != nil {
			return err
		}
		old := d.log
		d.log = l
		core.Failpoint(FPRotate)
		if err := old.close(); err != nil {
			return err
		}
	}
	d.sinceCkpt = 0
	c := &pendingCkpt{done: make(chan struct{})}
	d.ckpt = c
	go func() {
		defer close(c.done)
		c.err = landCheckpoint(d.dir, pin, snap, start)
	}()
	return nil
}

// landCheckpoint is a checkpoint's part off the write lock: it gathers the
// pinned entries, writes them as checkpoint snap.LastSeq and, once that file
// has landed, prunes what it supersedes and records the checkpoint, timed
// from start (the pin). It touches nothing the writer mutates, so writes
// after the pin go on beside it. A panic comes back as a *core.PanicError.
func landCheckpoint(dir string, pin *core.DynSnapshot, snap *core.Snapshot, start time.Time) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &core.PanicError{Op: "wal.checkpoint", Query: fmt.Sprintf("seq=%d", snap.LastSeq), Val: r, Stack: debug.Stack()}
		}
	}()
	core.Failpoint(FPCheckpointBegin)
	snap.Handles, snap.Objs, err = pin.Entries()
	if err != nil {
		return fmt.Errorf("wal: snapshotting for checkpoint: %w", err)
	}
	if err := writeCheckpointFile(dir, snap); err != nil {
		return err
	}
	prune(dir, snap.LastSeq)
	walCheckpoints.Inc()
	walCheckpointNs.Observe(int64(time.Since(start)))
	return nil
}

// prune removes the files the checkpoint at seq supersedes, once it is
// durable: older checkpoints, and the segments that start at or before seq
// (the log rotated to seq+1 at the checkpoint's pin, so they hold only
// records up to seq). Checkpoints go through pager.Retire instead of a bare
// unlink: a superseded snapshot the paged base (or any reader) still has
// mapped is marked obsolete and deleted on its last unref, never under the
// reader. Failures are ignored — recovery handles leftover files.
func prune(dir string, seq uint64) {
	ls, err := listDir(dir)
	if err != nil {
		return
	}
	for _, s := range ls.ckpts {
		if s < seq {
			pager.Retire(checkpointPath(dir, s))
		}
	}
	for _, s := range ls.segs {
		if s <= seq {
			os.Remove(segmentPath(dir, s))
		}
	}
}

// Close waits for a checkpoint still being written (its failure comes back
// wrapped in ErrCheckpoint), fsyncs and closes the log, and releases the paged base's checkpoint
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
	err := wrapCheckpointErr(d.awaitCheckpointLocked())
	d.idx.SetJournal(nil)
	if lerr := d.log.close(); err == nil {
		err = lerr
	}
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
func (d *Durable) Query(q *geom.Rect, ws []dataset.Keyword, opts core.QueryOpts, report func(handle int64, obj *dataset.Object)) (core.QueryStats, error) {
	return d.idx.Query(q, ws, opts, report)
}

// SnapshotNow pins the current acknowledged state for repeatable reads: queries
// against the returned view answer identically no matter how many mutations
// are applied afterwards, and its Seq() is the WAL sequence number of the
// last acknowledged record it includes — the view is exactly the acked-WAL
// prefix [1, Seq()]. Pinning takes one atomic load and no locks.
func (d *Durable) SnapshotNow() *core.DynSnapshot {
	return d.idx.SnapshotNow()
}

// Len returns the number of live objects.
func (d *Durable) Len() int { return d.idx.Len() }

// K returns the query keyword arity.
func (d *Durable) K() int { return d.k }

// Dim returns the point dimensionality.
func (d *Durable) Dim() int { return d.dim }

// Seq returns the sequence number of the last acknowledged operation —
// the length of the operation history a recovery of the current state would
// replay to. It reads the published state (no lock), so a mutation in flight
// is not counted until it is applied and acknowledged.
func (d *Durable) Seq() uint64 { return d.idx.Seq() }

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
