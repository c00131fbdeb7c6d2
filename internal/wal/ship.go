package wal

import (
	"fmt"
	"os"

	"kwsc/internal/core"
)

// Log-shipping exports. A replication shipper (internal/repl) serves a
// durable directory to follower processes: the newest checkpoint seeds a
// fresh follower, and the seq-continuous frame tail after any acknowledged
// position catches it up. Everything here reads the on-disk artifacts the
// way recovery does, through listDir and frameReader. Frames are shipped
// verbatim (length, crc32c, payload), so a follower's Durable.ApplyShipped
// re-verifies every byte and applies every record by recovery's rule: a
// transport that corrupts or truncates a frame is detected, never applied.

// ErrTailPruned reports that the requested log position has been superseded
// by a checkpoint and pruned: the records are no longer on disk, and a
// follower at that position must re-seed from the newest checkpoint.
var ErrTailPruned = errorString("wal: requested tail pruned by a checkpoint")

// DirHasState reports whether dir holds any durable state (a checkpoint or a
// log segment). A follower uses this to decide between resuming its local
// state and seeding from the primary's checkpoint.
func DirHasState(dir string) (bool, error) {
	ls, err := listDir(dir)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if len(ls.ckpts) > 0 {
		return true, nil
	}
	for _, s := range ls.segs {
		// A segment whose logical end is 0 — all zeros: a fresh open's,
		// empty or holding just its preallocated window — is not state: it
		// holds no acknowledged record and seeding over it is always safe.
		if data, err := os.ReadFile(segmentPath(dir, s)); err == nil && !isZero(data) {
			return true, nil
		}
	}
	return false, nil
}

// NewestCheckpoint reports the newest checkpoint file in dir and the WAL
// sequence it supersedes. ok is false when dir holds no checkpoint.
func NewestCheckpoint(dir string) (path string, lastSeq uint64, ok bool, err error) {
	ls, err := listDir(dir)
	if os.IsNotExist(err) {
		return "", 0, false, nil
	}
	if err != nil || len(ls.ckpts) == 0 {
		return "", 0, false, err
	}
	return checkpointPath(dir, ls.ckpts[0]), ls.ckpts[0], true, nil
}

// CheckpointFileName returns the canonical file name of a checkpoint
// superseding lastSeq, so a follower can land a downloaded checkpoint where
// its own recovery will find it.
func CheckpointFileName(lastSeq uint64) string {
	return fmt.Sprintf("checkpoint-%016x.ckpt", lastSeq)
}

// ValidateCheckpointFile reads a checkpoint file as recovery into memory
// does (core.ReadPagedSnapshot: the container framing, the meta and the
// structure, every page checksum, every tree box, every row against its
// entry) and returns the sequence it supersedes. A follower calls this on a downloaded checkpoint before
// renaming it into place, so a truncated, corrupted or lying transfer is
// refused instead of landing where recovery would find it. The file must
// land as CheckpointFileName(lastSeq): recovery skips a checkpoint whose
// name disagrees with the sequence it supersedes.
func ValidateCheckpointFile(path string) (lastSeq uint64, err error) {
	s, err := core.ReadPagedSnapshot(path)
	if err != nil {
		return 0, err
	}
	return s.LastSeq, nil
}

// CollectTail gathers the verbatim frames of every record with sequence in
// (afterSeq, upToSeq] into one byte stream, in order, stopping early once
// maxBytes is exceeded (at least one frame is always shipped when available).
// It returns the stream and the sequence of the last record included.
//
// The scan reads each segment to its logical end (a live segment's
// preallocated zeros are its clean end, never damage) and tolerates a
// concurrent appender: a frame still being copied into the newest segment
// simply ends the batch (those records are not yet acknowledged at upToSeq
// anyway). ErrTailPruned reports that records in the
// range have been superseded by a checkpoint and deleted — the caller must
// re-seed from the checkpoint instead.
func CollectTail(dir string, afterSeq, upToSeq uint64, maxBytes int) (frames []byte, shippedTo uint64, err error) {
	if upToSeq <= afterSeq {
		return nil, afterSeq, nil
	}
	ls, err := listDir(dir)
	if err != nil {
		return nil, afterSeq, err
	}
	segSeqs := ls.segs
	shippedTo = afterSeq
	for si, ss := range segSeqs {
		if ss > upToSeq {
			break
		}
		// Skip segments that end before the requested range; the next
		// segment's start seq bounds this one's records.
		if si+1 < len(segSeqs) && segSeqs[si+1] <= shippedTo+1 {
			continue
		}
		data, err := os.ReadFile(segmentPath(dir, ss))
		if err != nil {
			if os.IsNotExist(err) {
				continue // pruned between listing and reading; rescan below
			}
			return nil, afterSeq, err
		}
		// The walk stops at a clean EOF, a torn tail the appender is still
		// writing, or a frame recovery would refuse — in every case the
		// shippable prefix of this segment ends there.
		fr := frameReader{data: data}
		for {
			r, frame, ok := fr.next()
			if !ok {
				break
			}
			if r.seq <= afterSeq {
				continue
			}
			if r.seq > upToSeq {
				return frames, shippedTo, nil
			}
			if r.seq != shippedTo+1 {
				// A gap inside the on-disk tail: records between were pruned
				// (or the directory is damaged); either way the follower
				// cannot be caught up from here.
				return nil, afterSeq, ErrTailPruned
			}
			frames = append(frames, frame...)
			shippedTo = r.seq
			if len(frames) >= maxBytes {
				return frames, shippedTo, nil
			}
		}
	}
	if shippedTo == afterSeq {
		// Nothing shippable although upToSeq > afterSeq: the range was
		// superseded by a checkpoint and its segments pruned.
		return nil, afterSeq, ErrTailPruned
	}
	return frames, shippedTo, nil
}
