package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"kwsc/internal/core"
)

// recovered is the outcome of a directory recovery: the reconstructed index,
// the last applied sequence number, and the segment new appends go to.
type recovered struct {
	idx       *core.DynamicORPKW
	lastSeq   uint64
	segPath   string
	replayed  int64
	truncated bool
}

// recoverDir reconstructs the dynamic index from the durability directory:
// newest valid checkpoint first, then an in-order replay of every log record
// after it. The recovery state machine (DESIGN.md §11):
//
//	SCAN      list checkpoints (desc) and segments (asc); drop *.tmp litter
//	RESTORE   load the newest checkpoint that validates; corrupt or torn
//	          checkpoints are skipped (an older one plus a longer replay is
//	          always consistent, because segments are only deleted after the
//	          checkpoint superseding them is durable)
//	BRIDGE    the oldest segment must start at or before the restored
//	          sequence + 1, and a skipped checkpoint needs a segment at all;
//	          otherwise ErrCorrupt — an empty tail must not pass for an
//	          empty history
//	REPLAY    scan frames across segments in sequence order; skip records a
//	          checkpoint supersedes, apply the rest; any sequence gap,
//	          handle mismatch, or inapplicable record is ErrCorrupt
//	TORN-TAIL a damaged frame with no valid frame after it, in the final
//	          segment, truncates the file there; damage anywhere else fails
//	          recovery — truncation must never drop an acknowledged op that
//	          a later valid frame proves was followed by more history
func recoverDir(dir string, dim, k int, cfg config) (*recovered, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ckptSeqs, segSeqs []uint64
	for _, de := range names {
		name := de.Name()
		if strings.HasSuffix(name, ".tmp") {
			// Litter from a checkpoint that crashed before its rename; it
			// was never the commit point, so it is safe to drop.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if s, ok := parseSeq(name, "checkpoint-", ".ckpt"); ok {
			ckptSeqs = append(ckptSeqs, s)
		}
		if s, ok := parseSeq(name, "wal-", ".log"); ok {
			segSeqs = append(segSeqs, s)
		}
	}
	sort.Slice(ckptSeqs, func(a, b int) bool { return ckptSeqs[a] > ckptSeqs[b] })
	sort.Slice(segSeqs, func(a, b int) bool { return segSeqs[a] < segSeqs[b] })

	// RESTORE: newest checkpoint that validates. With paged recovery the
	// checkpoint is not decoded at all — it is opened as the dynamic index's
	// immutable bottom layer and serves queries in place, so cold start is the
	// map (or pool attach) plus the WAL-tail replay below.
	var idx *core.DynamicORPKW
	base := uint64(0)
	skipped := "" // the newest checkpoint that failed to validate, and why
	for _, cs := range ckptSeqs {
		path := checkpointPath(dir, cs)
		if cfg.paged {
			pb, err := core.OpenPagedBase(path, cfg.pagedOpts)
			if err == nil {
				if pb.K() != k || pb.Dim() != dim {
					kk, dd := pb.K(), pb.Dim()
					pb.Close()
					return nil, fmt.Errorf("wal: checkpoint is for k=%d dim=%d, index opened with k=%d dim=%d",
						kk, dd, k, dim)
				}
				idx, err = core.RestoreDynamicORPKWFromBase(dim, k, cfg.bufferCap, pb, pb.NextHandle(), cfg.build...)
				if err != nil {
					pb.Close()
					return nil, fmt.Errorf("wal: restoring paged checkpoint %d: %w", cs, err)
				}
				base = pb.LastSeq()
				break
			}
			// Damaged: the decoding path refuses it the same way.
		}
		snap, err := readCheckpoint(path)
		if err != nil {
			if skipped == "" {
				skipped = fmt.Sprintf("; checkpoint %s does not validate: %v", filepath.Base(path), err)
			}
			continue // fall back to an older one + replay
		}
		if snap.K != k || snap.Dim != dim {
			return nil, fmt.Errorf("wal: checkpoint is for k=%d dim=%d, index opened with k=%d dim=%d",
				snap.K, snap.Dim, k, dim)
		}
		idx, err = core.RestoreDynamicORPKW(dim, k, cfg.bufferCap, snap.Handles, snap.Objs, snap.NextHandle, cfg.build...)
		if err != nil {
			return nil, fmt.Errorf("wal: restoring checkpoint %d: %w", cs, err)
		}
		base = snap.LastSeq
		break
	}
	if idx == nil {
		var err error
		idx, err = core.NewDynamicORPKW(dim, k, cfg.bufferCap, cfg.build...)
		if err != nil {
			return nil, err
		}
	}
	// From here on a failed recovery must release the paged base's file
	// reference (and mapping) instead of leaking it to the finalizer.
	recoverOK := false
	defer func() {
		if !recoverOK {
			if b := idx.Base(); b != nil {
				b.Close()
			}
		}
	}()
	// Align the index's mutation sequence with the journal's numbering: the
	// restored state corresponds to the checkpoint's LastSeq, and each
	// replayed record advances it by one, so after replay the published seq
	// is exactly the last applied record's — the anchor for snapshot reads.
	idx.SetSeq(base)

	// BRIDGE. Segments are named by their first sequence and rotate only at
	// a durable checkpoint, so a log that starts after base+1 — or no log at
	// all behind a checkpoint that failed — means acknowledged history is
	// missing, even when the surviving tail is empty and replay would find
	// nothing to contradict the restored state.
	if len(segSeqs) > 0 && segSeqs[0] > base+1 || len(segSeqs) == 0 && skipped != "" {
		return nil, fmt.Errorf("%w: the recovered state ends at seq %d, log segments start at seqs %v%s",
			ErrCorrupt, base, segSeqs, skipped)
	}

	// REPLAY.
	rec := &recovered{idx: idx}
	expected := base + 1
	for si, ss := range segSeqs {
		path := segmentPath(dir, ss)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		off := 0
		for {
			payload, next, serr := scanFrame(data, off)
			if serr == io.EOF {
				break
			}
			if serr != nil {
				if si == len(segSeqs)-1 && !anyValidFrameAfter(data, off+1) {
					// TORN-TAIL: nothing valid follows the damage.
					if terr := os.Truncate(path, int64(off)); terr != nil {
						return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, terr)
					}
					walTornTruncations.Inc()
					rec.truncated = true
					break
				}
				return nil, fmt.Errorf("%w: damaged frame at %s offset %d precedes valid frames (%v)",
					ErrCorrupt, path, off, serr)
			}
			r, rerr := decodeRecord(payload)
			if rerr != nil {
				// The frame checksum held but the payload is structurally
				// invalid: this is never a torn write, so refuse.
				return nil, fmt.Errorf("wal: %s offset %d: %w", path, off, rerr)
			}
			off = next
			if r.seq <= base {
				continue // superseded by the checkpoint
			}
			if r.seq != expected {
				return nil, fmt.Errorf("%w: sequence gap: record %d where %d was expected (%s)",
					ErrCorrupt, r.seq, expected, path)
			}
			core.Failpoint(FPReplay)
			switch r.op {
			case opInsert:
				h, err := idx.Insert(r.obj)
				if err != nil {
					return nil, fmt.Errorf("wal: replaying insert seq %d: %w", r.seq, err)
				}
				if h != r.handle {
					return nil, fmt.Errorf("%w: replayed insert seq %d produced handle %d, logged %d",
						ErrCorrupt, r.seq, h, r.handle)
				}
			case opDelete:
				ok, err := idx.Delete(r.handle)
				if err != nil {
					return nil, fmt.Errorf("wal: replaying delete seq %d: %w", r.seq, err)
				}
				if !ok {
					return nil, fmt.Errorf("%w: replayed delete seq %d of unknown handle %d",
						ErrCorrupt, r.seq, r.handle)
				}
			}
			expected++
			rec.replayed++
		}
	}
	rec.lastSeq = expected - 1
	if len(segSeqs) > 0 {
		rec.segPath = segmentPath(dir, segSeqs[len(segSeqs)-1])
	} else {
		rec.segPath = segmentPath(dir, rec.lastSeq+1)
	}
	walRecoveries.Inc()
	walReplayedRecords.Add(rec.replayed)
	walRecoveryNs.Observe(int64(time.Since(start)))
	recoverOK = true
	return rec, nil
}
