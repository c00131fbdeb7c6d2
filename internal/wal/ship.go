package wal

import (
	"fmt"
	"os"
	"sort"

	"kwsc/internal/codec"
	"kwsc/internal/dataset"
	"kwsc/internal/pager"
)

// Log-shipping exports. A replication shipper (internal/repl) serves a
// durable directory to follower processes: the newest checkpoint seeds a
// fresh follower, and the seq-continuous frame tail after any acknowledged
// position catches it up. Everything here reads the same on-disk artifacts
// the recovery path does — frames are shipped verbatim (length, crc32c,
// payload), so a follower re-verifies every byte with the same scanner the
// primary's own recovery uses and a transport that corrupts or truncates a
// frame is detected, never applied.

// ErrTailPruned reports that the requested log position has been superseded
// by a checkpoint and pruned: the records are no longer on disk, and a
// follower at that position must re-seed from the newest checkpoint.
var ErrTailPruned = errorString("wal: requested tail pruned by a checkpoint")

// ErrTornFrame is the exported torn-frame sentinel of the frame scanner: the
// remaining bytes cannot hold the claimed frame. At the end of a shipped
// batch this means "re-request from the same position", never corruption.
var ErrTornFrame = errTorn

// ShippedOp is one decoded replication record.
type ShippedOp struct {
	Seq    uint64
	Delete bool
	Handle int64
	Obj    dataset.Object // inserts only
}

// DecodeShipped decodes one frame payload into a replication record. It is
// total over arbitrary bytes; structural violations return ErrCorrupt.
func DecodeShipped(payload []byte) (ShippedOp, error) {
	r, err := decodeRecord(payload)
	if err != nil {
		return ShippedOp{}, err
	}
	return ShippedOp{Seq: r.seq, Delete: r.op == opDelete, Handle: r.handle, Obj: r.obj}, nil
}

// NextFrame scans the frame starting at data[off:], returning the payload
// (aliasing data) and the offset of the next frame. io.EOF marks a clean
// end, ErrTornFrame a frame cut short, ErrCorrupt a checksum mismatch.
func NextFrame(data []byte, off int) (payload []byte, next int, err error) {
	return scanFrame(data, off)
}

// DirHasState reports whether dir holds any durable state (a checkpoint or a
// log segment). A follower uses this to decide between resuming its local
// state and seeding from the primary's checkpoint.
func DirHasState(dir string) (bool, error) {
	des, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	for _, de := range des {
		name := de.Name()
		if _, ok := parseSeq(name, "checkpoint-", ".ckpt"); ok {
			return true, nil
		}
		if s, ok := parseSeq(name, "wal-", ".log"); ok {
			// An empty wal-0...1.log from a fresh open is not state: it holds
			// no acknowledged record and seeding over it is always safe.
			if st, err := os.Stat(segmentPath(dir, s)); err == nil && st.Size() > 0 {
				return true, nil
			}
		}
	}
	return false, nil
}

// NewestCheckpoint reports the newest checkpoint file in dir and the WAL
// sequence it supersedes. ok is false when dir holds no checkpoint.
func NewestCheckpoint(dir string) (path string, lastSeq uint64, ok bool, err error) {
	des, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return "", 0, false, nil
	}
	if err != nil {
		return "", 0, false, err
	}
	best, found := uint64(0), false
	for _, de := range des {
		if s, ok := parseSeq(de.Name(), "checkpoint-", ".ckpt"); ok && (!found || s > best) {
			best, found = s, true
		}
	}
	if !found {
		return "", 0, false, nil
	}
	return checkpointPath(dir, best), best, true, nil
}

// CheckpointFileName returns the canonical file name of a checkpoint
// superseding lastSeq, so a follower can land a downloaded checkpoint where
// its own recovery will find it.
func CheckpointFileName(lastSeq uint64) string {
	return fmt.Sprintf("checkpoint-%016x.ckpt", lastSeq)
}

// ValidateCheckpointFile verifies a checkpoint file end to end — the
// container framing and every page checksum — and returns the sequence it
// supersedes. A follower calls this on a downloaded checkpoint before
// trusting it, so a truncated or corrupted transfer is refused instead of
// recovered from.
func ValidateCheckpointFile(path string) (lastSeq uint64, err error) {
	f, err := pager.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Unref()
	c, err := codec.ParseContainer(f, f.Size())
	if err != nil {
		return 0, err
	}
	if err := c.VerifyAllPages(f); err != nil {
		return 0, err
	}
	meta := codec.ParsePagedMeta(c.Meta)
	if meta.Kind != codec.PagedKindSnapshot {
		return 0, fmt.Errorf("wal: checkpoint container holds kind %d, want snapshot", meta.Kind)
	}
	return meta.LastSeq, nil
}

// CollectTail gathers the verbatim frames of every record with sequence in
// (afterSeq, upToSeq] into one byte stream, in order, stopping early once
// maxBytes is exceeded (at least one frame is always shipped when available).
// It returns the stream and the sequence of the last record included.
//
// The scan tolerates a concurrent appender: a torn frame at the end of the
// newest segment simply ends the batch (those records are not yet
// acknowledged at upToSeq anyway). ErrTailPruned reports that records in the
// range have been superseded by a checkpoint and deleted — the caller must
// re-seed from the checkpoint instead.
func CollectTail(dir string, afterSeq, upToSeq uint64, maxBytes int) (frames []byte, shippedTo uint64, err error) {
	if upToSeq <= afterSeq {
		return nil, afterSeq, nil
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, afterSeq, err
	}
	var segSeqs []uint64
	for _, de := range des {
		if s, ok := parseSeq(de.Name(), "wal-", ".log"); ok {
			segSeqs = append(segSeqs, s)
		}
	}
	sort.Slice(segSeqs, func(a, b int) bool { return segSeqs[a] < segSeqs[b] })

	expected := afterSeq + 1
	shippedTo = afterSeq
	for si, ss := range segSeqs {
		if ss > upToSeq {
			break
		}
		// Skip segments that end before the requested range; the next
		// segment's start seq bounds this one's records.
		if si+1 < len(segSeqs) && segSeqs[si+1] <= expected {
			continue
		}
		data, err := os.ReadFile(segmentPath(dir, ss))
		if err != nil {
			if os.IsNotExist(err) {
				continue // pruned between ReadDir and ReadFile; rescan below
			}
			return nil, afterSeq, err
		}
		off := 0
		for {
			payload, next, serr := scanFrame(data, off)
			if serr != nil {
				// Clean EOF, a torn tail the appender is still writing, or a
				// frame recovery would refuse — in every case the shippable
				// prefix of this segment ends here.
				break
			}
			r, rerr := decodeRecord(payload)
			if rerr != nil {
				break
			}
			frame := data[off:next]
			off = next
			if r.seq <= afterSeq {
				continue
			}
			if r.seq > upToSeq {
				return frames, shippedTo, nil
			}
			if r.seq != expected {
				// A gap inside the on-disk tail: records between were pruned
				// (or the directory is damaged); either way the follower
				// cannot be caught up from here.
				return nil, afterSeq, ErrTailPruned
			}
			frames = append(frames, frame...)
			shippedTo = r.seq
			expected++
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
