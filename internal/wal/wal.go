// Package wal is the durability subsystem of the dynamic index: a CRC-framed
// write-ahead log, atomic checkpoints, and a crash-recovery path that
// together guarantee that every acknowledged insert/delete survives a process
// crash (under the per-op fsync policy) and that recovery never surfaces a
// half-applied operation.
//
// The design follows the standard redo-log architecture (DESIGN.md §11):
//
//   - Every mutation is appended to the active log segment as a
//     length-prefixed, checksummed frame *before* it is applied in memory;
//     the operation is acknowledged to the caller only after the append (and,
//     per policy, the fsync) succeeded.
//   - A checkpoint pins the published state and rotates the log under the
//     writer lock; then, on a goroutine of its own while writes go on, it
//     writes the pinned entries (core.WritePagedSnapshot) into a tmp file,
//     fsyncs it, renames it into place, and fsyncs the directory — the
//     rename is the atomic commit point — and only then prunes the files it
//     supersedes. A checkpoint supersedes every log record with a sequence
//     number at or below its LastSeq.
//   - Recovery loads the newest checkpoint that validates, replays the log
//     records after it in sequence order, truncates a torn tail (a partial or
//     corrupt final frame with no valid frame after it), and refuses to skip
//     over mid-log corruption: a corrupt frame that precedes a valid one
//     fails recovery rather than silently dropping operations.
//
// Frame format (little-endian):
//
//	u32 payload length | u32 crc32c(payload) | payload
//
// The payload is one op record (see record.go). Each frame reaches the file
// in one write(2); a torn write leaves a prefix of it, and because the header
// leads the frame, any 8-byte-complete header carries a genuine length and a
// frame cut short by a crash is detected as extending past end-of-file.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kwsc/internal/core"
	"kwsc/internal/pager"
)

// SyncPolicy selects when the log is fsynced, trading durability for append
// throughput (see EXPERIMENTS.md for the measured spread).
type SyncPolicy int

const (
	// SyncEveryOp fsyncs before acknowledging each operation: an
	// acknowledged op survives both a process and an OS crash.
	SyncEveryOp SyncPolicy = iota
	// SyncInterval flushes each append to the OS immediately (surviving a
	// process crash) but fsyncs on a timer, so an OS crash can lose up to
	// one interval of acknowledged operations.
	SyncInterval
	// SyncNone never fsyncs explicitly; acknowledged operations survive a
	// process crash but an OS crash may lose any of them.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryOp:
		return "every-op"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Failpoint sites covering every durability transition; the crash-injection
// suite arms each with a panic to prove recovery holds at that point. The
// sites share the registry of kwsc/internal/core so one Arm/Disarm API
// covers query-path and durability faults alike.
const (
	// FPAppend fires mid-frame, after the first half of a frame's bytes
	// reached the file — an armed panic here leaves a torn tail. A frame is
	// split around it only while a failpoint is armed (see writeSplit).
	FPAppend = "wal/append"
	// FPSync fires after a frame is fully written but before the fsync that
	// would acknowledge it.
	FPSync = "wal/pre-sync"
	// FPCheckpointBegin fires as a checkpoint's background writer starts,
	// before it gathers the pinned entries — an armed action that blocks
	// there holds the writer while writes go on.
	FPCheckpointBegin = "wal/checkpoint-begin"
	// FPCheckpointWrite fires mid-checkpoint, after half the snapshot's
	// bytes reached the tmp file (split as FPAppend's frame is).
	FPCheckpointWrite = "wal/checkpoint-write"
	// FPCheckpointRename fires after the tmp checkpoint is complete and
	// fsynced but before the atomic rename.
	FPCheckpointRename = "wal/checkpoint-rename"
	// FPReplay fires before each logged record is applied, at recovery and
	// at a follower alike (see apply) — an armed panic kills either
	// mid-replay.
	FPReplay = "wal/replay"
)

// ErrCorrupt reports unrecoverable log or checkpoint corruption: a damaged
// frame that valid frames follow, a sequence gap, or a record that cannot be
// applied. Torn tails are not corruption — they are truncated silently (and
// counted in kwsc_wal_recovery_torn_tail_truncations_total).
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrDiverged reports a shipped record that does not replay exactly onto a
// follower's state (see apply): a sequence gap, an insert that would produce
// a different handle, or a delete of a dead handle. The state no longer
// matches the primary's logged history; recovery refuses the same records
// as ErrCorrupt.
var ErrDiverged = errors.New("wal: replica state diverged from the shipped log")

// ErrClosed reports an operation on a closed Durable index.
var ErrClosed = errors.New("wal: index is closed")

// ErrReadOnly reports a direct mutation against a sealed index — a replica's
// local state, which only its replication applier may advance (a direct
// write would silently diverge it from its primary's history).
var ErrReadOnly = errors.New("wal: index is read-only (replica)")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeader     = 8
	maxFramePayload = 1 << 24
)

// log is one append-only segment file. Appends are serialized by the owning
// Durable's mutex; the internal mutex only fences the interval-sync
// goroutine against appends.
type log struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	policy  SyncPolicy
	end     int64 // logical end: bytes of fully appended frames
	bad     bool  // a failed append left a partial frame past end
	dirty   bool  // appended since the last fsync
	syncErr error // deferred error from the interval-sync goroutine
	stop    chan struct{}
	wg      sync.WaitGroup
	scratch []byte
}

// openLog opens (creating if needed) the segment at path for appending.
// Recovery has already truncated any torn tail, so the current file size is
// the logical end. The directory is fsynced before the first append: a
// record fsynced into a segment whose directory entry is not durable can
// still lose its file to a power cut.
func openLog(path string, policy SyncPolicy, interval time.Duration) (*log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err == nil {
		err = pager.SyncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	l := &log{f: f, path: path, policy: policy, end: st.Size()}
	if policy == SyncInterval {
		l.stop = make(chan struct{})
		l.wg.Add(1)
		go l.syncLoop(interval)
	}
	return l, nil
}

func (l *log) syncLoop(interval time.Duration) {
	defer l.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if l.dirty {
				if err := l.f.Sync(); err != nil {
					l.syncErr = err
				} else {
					l.dirty = false
					walFsyncs.Inc()
				}
			}
			l.mu.Unlock()
		case <-l.stop:
			return
		}
	}
}

// append writes one frame around payload, with one write(2), and makes it
// durable per policy: under interval and none the whole frame is in the
// kernel before append returns, under every-op it is fsynced too.
// On any error the frame is logically excised — the next append truncates
// the partial bytes away — so the log never accumulates a damaged frame
// followed by valid ones.
func (l *log) append(payload []byte) error {
	if len(payload) == 0 || len(payload) > maxFramePayload {
		return fmt.Errorf("wal: frame payload size %d", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.syncErr; err != nil {
		l.syncErr = nil
		return fmt.Errorf("wal: deferred sync failure: %w", err)
	}
	if l.bad {
		if err := l.f.Truncate(l.end); err != nil {
			return fmt.Errorf("wal: excising failed append: %w", err)
		}
		l.bad = false
	}
	l.scratch = l.scratch[:0]
	l.scratch = binary.LittleEndian.AppendUint32(l.scratch, uint32(len(payload)))
	l.scratch = binary.LittleEndian.AppendUint32(l.scratch, crc32.Checksum(payload, castagnoli))
	l.scratch = append(l.scratch, payload...)
	if err := writeSplit(l.f, l.scratch, FPAppend); err != nil {
		l.bad = true
		return err
	}
	l.end += int64(len(l.scratch))
	l.dirty = true
	walAppends.Inc()
	walAppendBytes.Add(int64(len(l.scratch)))
	if l.policy == SyncEveryOp {
		core.Failpoint(FPSync)
		if err := l.f.Sync(); err != nil {
			// The frame is complete but not durable: excise it so the
			// unacknowledged op cannot resurface after recovery.
			l.bad = true
			l.end -= int64(len(l.scratch))
			return err
		}
		l.dirty = false
		walFsyncs.Inc()
	}
	return nil
}

// writeSplit writes data to f with one write(2). While a failpoint is armed
// it writes data in two halves with site between them instead, so that an
// armed panic models a torn write: a prefix for recovery to truncate.
func writeSplit(f *os.File, data []byte, site string) error {
	if core.FailpointsArmed() {
		half := len(data) / 2
		if _, err := f.Write(data[:half]); err != nil {
			return err
		}
		core.Failpoint(site)
		data = data[half:]
	}
	_, err := f.Write(data)
	return err
}

// sync forces an fsync of everything appended so far.
func (l *log) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.dirty {
		return l.syncErr
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	walFsyncs.Inc()
	return l.syncErr
}

// close stops the interval-sync goroutine, fsyncs, and closes the file.
func (l *log) close() error {
	if l.stop != nil {
		close(l.stop)
		l.wg.Wait()
		l.stop = nil
	}
	err := l.sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
