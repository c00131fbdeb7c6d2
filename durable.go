package kwsc

import (
	"kwsc/internal/wal"
)

// Durability: OpenDurable gives the dynamic ORP-KW index a write-ahead log,
// periodic checkpoints, and crash recovery. Every insert and delete is
// logged before it is acknowledged, so after a crash Open reconstructs the
// exact acknowledged state: newest valid checkpoint + log replay, with a
// torn final write truncated and any deeper corruption refused (ErrCorrupt)
// rather than silently skipped.
//
// The durable index is safe for concurrent use: writers serialize on an
// internal write mutex while queries and snapshots run lock-free against the
// published copy-on-write state — they never wait on a mutation, a
// checkpoint, or an fsync.
//
//	d, err := kwsc.OpenDurable("idx.d", 2, 2) // dim=2, k=2
//	h, err := d.Insert(obj)                   // durable once err == nil
//	s := d.SnapshotNow()                      // pinned view of seq [1, s.Seq()]
//	err = d.Checkpoint()                      // bound future recovery time
//	err = d.Close()
//	d, err = kwsc.OpenDurable("idx.d", 2, 2)  // recovers, handles stable

// DurableORPKW is the crash-safe dynamic index; see OpenDurable.
type DurableORPKW = wal.Durable

// DurableOption configures OpenDurable.
type DurableOption = wal.Option

// SyncPolicy selects when the write-ahead log is fsynced — the
// durability/throughput trade-off of WithFsyncPolicy.
type SyncPolicy = wal.SyncPolicy

// Fsync policies for WithFsyncPolicy.
const (
	// FsyncEveryOp fsyncs before acknowledging each operation (default):
	// acknowledged ops survive OS crashes and power loss.
	FsyncEveryOp = wal.SyncEveryOp
	// FsyncInterval flushes every append immediately but fsyncs once a
	// second: acknowledged ops survive process crashes; an OS crash can lose
	// up to a second of them.
	FsyncInterval = wal.SyncInterval
	// FsyncNone never fsyncs explicitly: acknowledged ops survive process
	// crashes only.
	FsyncNone = wal.SyncNone
)

// ErrCorrupt reports unrecoverable log or checkpoint corruption found during
// OpenDurable: damage that valid records follow, a sequence gap, or an
// inapplicable record. (A torn final write is not corruption; recovery
// truncates it silently.)
var ErrCorrupt = wal.ErrCorrupt

// ErrIndexClosed reports an operation on a closed durable index.
var ErrIndexClosed = wal.ErrClosed

// WithFsyncPolicy selects the log's fsync policy (default FsyncEveryOp).
func WithFsyncPolicy(p SyncPolicy) DurableOption { return wal.WithSyncPolicy(p) }

// WithAutoCheckpoint checkpoints automatically after every n operations
// (0 disables; Checkpoint remains available). The triggering operation only
// pins the state and rotates the log; the checkpoint file is written in the
// background, and its failure comes back from the next trigger (beside the
// applied, logged mutation), Checkpoint or Close.
func WithAutoCheckpoint(n int) DurableOption { return wal.WithAutoCheckpoint(n) }

// WithDurableBufferCap tunes the dynamic index's unindexed write buffer
// (0 selects the default).
func WithDurableBufferCap(n int) DurableOption { return wal.WithBufferCap(n) }

// OpenDurable opens (creating or recovering) a durable dynamic ORP-KW index
// rooted at directory dir, for dim-dimensional points and k-keyword queries;
// dim and k must match any state already in dir. See DESIGN.md §11 for the
// log format, checkpointing, and the recovery state machine.
func OpenDurable(dir string, dim, k int, opts ...DurableOption) (*DurableORPKW, error) {
	return wal.Open(dir, dim, k, opts...)
}
