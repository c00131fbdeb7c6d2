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
// The payload is one op record (see record.go). Each frame is copied into a
// shared mapping of the live segment, preallocated one window at a time (or,
// where the file system cannot map it, written with one write(2)), so a live
// or crashed segment ends in zeros: an all-zero remainder after the last
// whole frame is the segment's clean end, and a closed segment is truncated
// to it. A torn append leaves a prefix of its frame; because the header leads
// the frame, any 8-byte-complete header carries a genuine length, and a frame
// cut short by a crash fails its checksum or extends past end-of-file.
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
	// process crash) but fsyncs on a timer, once a second, so an OS crash
	// can lose up to one interval of acknowledged operations.
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
	// FPRotate fires as a checkpoint rotates the log, after the fresh
	// segment is open and before the old one is closed — an armed panic
	// leaves the old segment, no longer the final one, holding its window's
	// zeros.
	FPRotate = "wal/rotate"
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

// logWindow is how far a live segment is preallocated and mapped past the
// frame that needs it: each window costs one fallocate and one mmap, and a
// live segment holds up to one window of zeros on disk.
const logWindow = 1 << 20

// mapWindow is pager.MapWindow; tests swap it to take the write(2) path.
var mapWindow = pager.MapWindow

// log is one append-only segment file. Appends are serialized by the owning
// Durable's mutex; the internal mutex only fences the interval-sync
// goroutine against appends.
//
// A frame is copied into win, a shared, preallocated mapping of the segment
// from winOff, at the logical end; a store to a shared mapping is in the page
// cache the moment the copy ends, as a completed write(2) is, and the
// policy's fsync writes it back. The first append maps the first window.
// Where the file system cannot map or preallocate the segment
// (pager.ErrNoWindow) each frame is written with one pwrite(2) instead.
type log struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	policy  SyncPolicy
	end     int64  // logical end: bytes of fully appended frames
	written int64  // past end when a failed append left bytes there
	win     []byte // the mapped window; nil before the first append
	winOff  int64  // file offset of win[0]
	writes  bool   // the segment cannot be mapped: frames go through pwrite(2)
	dirty   bool   // appended since the last fsync
	syncErr error  // deferred error from the interval-sync goroutine
	stop    chan struct{}
	wg      sync.WaitGroup
	scratch []byte
}

// openLog opens (creating if needed) the segment at path for appending.
// Recovery has already truncated any torn or zero tail, so the current file
// size is the logical end. The directory is fsynced before the first append:
// a record fsynced into a segment whose directory entry is not durable can
// still lose its file to a power cut.
func openLog(path string, policy SyncPolicy, interval time.Duration) (*log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
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
	l := &log{f: f, path: path, policy: policy, end: st.Size(), written: st.Size()}
	if policy == SyncInterval {
		l.stop = make(chan struct{})
		l.wg.Add(1)
		go l.syncLoop(interval)
	}
	return l, nil
}

// remap replaces the window with one that holds n bytes past the logical
// end: it starts at the OS page holding the end and spans as many logWindows
// as that takes. The old window stays mapped until the new one is.
func (l *log) remap(n int64) error {
	off := l.end &^ int64(os.Getpagesize()-1)
	size := int64(logWindow)
	for off+size < l.end+n {
		size += logWindow
	}
	win, err := mapWindow(l.f, off, size)
	if err != nil {
		return err
	}
	old := l.win
	l.win, l.winOff = win, off
	return pager.UnmapWindow(old)
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

// append lands one frame around payload at the logical end (put) and makes
// it durable per policy: under interval and none the whole frame is in the
// page cache before append returns, under every-op it is fsynced too.
// On any error — or a panic that unwinds through it — the frame is
// logically excised: the next append zeroes its bytes (on the write(2)
// path, truncates them away), so no stale byte follows the logical end and
// the log never accumulates a damaged frame followed by valid ones.
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
	if l.written > l.end {
		if err := l.excise(); err != nil {
			return fmt.Errorf("wal: excising failed append: %w", err)
		}
	}
	l.scratch = l.scratch[:0]
	l.scratch = binary.LittleEndian.AppendUint32(l.scratch, uint32(len(payload)))
	l.scratch = binary.LittleEndian.AppendUint32(l.scratch, crc32.Checksum(payload, castagnoli))
	l.scratch = append(l.scratch, payload...)
	n := int64(len(l.scratch))
	if err := l.put(l.scratch); err != nil {
		return err
	}
	l.end += n
	l.dirty = true
	walAppends.Inc()
	walAppendBytes.Add(n)
	if l.policy == SyncEveryOp {
		core.Failpoint(FPSync)
		if err := l.f.Sync(); err != nil {
			// The frame is complete but not durable: excise it so the
			// unacknowledged op cannot resurface after recovery.
			l.end -= n
			return err
		}
		l.dirty = false
		walFsyncs.Inc()
	}
	return nil
}

// put lands frame at the logical end: one copy into the window, remapped
// first when the frame does not fit, or one pwrite(2) where the segment's
// first window was refused. written covers the frame before its first byte
// lands.
func (l *log) put(frame []byte) error {
	n := int64(len(frame))
	if !l.writes && l.end+n > l.winOff+int64(len(l.win)) {
		err := l.remap(n)
		switch {
		case l.win == nil && errors.Is(err, pager.ErrNoWindow):
			l.writes = true
		case err != nil:
			return err
		}
	}
	l.written = l.end + n
	at := l.end
	if l.writes {
		return writeSplit(frame, FPAppend, func(b []byte) error {
			_, err := l.f.WriteAt(b, at)
			at += int64(len(b))
			return err
		})
	}
	at -= l.winOff
	return writeSplit(frame, FPAppend, func(b []byte) error {
		at += int64(copy(l.win[at:], b))
		return nil
	})
}

// excise removes the bytes a failed append left past the logical end:
// zeroes them in the window, or truncates them away on the write(2) path.
func (l *log) excise() error {
	if !l.writes {
		clear(l.win[l.end-l.winOff : l.written-l.winOff])
	} else if err := l.f.Truncate(l.end); err != nil {
		return err
	}
	l.written = l.end
	return nil
}

// writeSplit hands data to write in one call. While a failpoint is armed it
// hands it over in two halves with site between them instead, so that an
// armed panic models a torn write: a prefix for recovery to truncate.
func writeSplit(data []byte, site string, write func([]byte) error) error {
	if core.FailpointsArmed() {
		half := len(data) / 2
		if err := write(data[:half]); err != nil {
			return err
		}
		core.Failpoint(site)
		data = data[half:]
	}
	return write(data)
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

// close stops the interval-sync goroutine, unmaps the window and truncates
// the segment to its logical end — so a closed segment holds its frames and
// nothing after them — then fsyncs and closes the file.
func (l *log) close() error {
	if l.stop != nil {
		close(l.stop)
		l.wg.Wait()
		l.stop = nil
	}
	err := pager.UnmapWindow(l.win)
	l.win = nil
	if terr := l.f.Truncate(l.end); err == nil {
		err = terr
	}
	if serr := l.sync(); err == nil {
		err = serr
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
