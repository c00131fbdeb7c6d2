package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"kwsc/internal/core"
)

// recoverDir reconstructs the dynamic index from the durability directory:
// newest valid checkpoint first, then an in-order replay of every log record
// after it. It returns the index, whose Seq() is the last applied sequence
// number, and the segment new appends go to. The recovery state machine
// (DESIGN.md §11):
//
//	SCAN      list checkpoints (desc) and segments (asc) with listDir; drop
//	          *.tmp litter
//	RESTORE   load the newest checkpoint that validates; corrupt, torn or
//	          misnamed checkpoints are skipped (an older one plus a longer
//	          replay is always consistent, because segments are only deleted
//	          after the checkpoint superseding them is durable)
//	BRIDGE    the oldest segment must start at or before the restored
//	          sequence + 1, and a skipped checkpoint needs a segment at all;
//	          otherwise ErrCorrupt — an empty tail must not pass for an
//	          empty history
//	REPLAY    walk the segments' frames in sequence order (frameReader);
//	          skip records a checkpoint supersedes, apply the rest by the one
//	          rule a follower also applies (apply); a sequence gap, a handle
//	          mismatch, or a record that does not decode is ErrCorrupt
//	ZERO-TAIL zeros after a segment's last whole frame — the preallocated
//	          window of a segment that was live when the process died — are
//	          its clean end, in any segment: truncated, never counted as torn
//	TORN-TAIL a damaged frame with no valid frame after it, in the final
//	          segment, truncates the file there; damage anywhere else fails
//	          recovery — truncation must never drop an acknowledged op that
//	          a later valid frame proves was followed by more history
func recoverDir(dir string, dim, k int, cfg config) (*core.DynamicORPKW, string, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	ls, err := listDir(dir)
	if err != nil {
		return nil, "", err
	}
	for _, name := range ls.tmps {
		// Litter from a checkpoint that crashed before its rename; it was
		// never the commit point, so it is safe to drop.
		os.Remove(filepath.Join(dir, name))
	}

	// RESTORE: newest checkpoint that validates. With paged recovery the
	// checkpoint is not decoded at all — it is the dynamic index's immutable
	// bottom layer and serves queries in place, so cold start is the map (or
	// pool attach) plus the WAL-tail replay below. Recovery into memory reads
	// it whole (core.ReadPagedSnapshot), which also runs the checks open
	// leaves to the queries.
	var idx *core.DynamicORPKW
	base := uint64(0)
	skipped := "" // the newest checkpoint that failed to validate, and why
	for _, cs := range ls.ckpts {
		path := checkpointPath(dir, cs)
		var pb *core.PagedBase // nil unless paged
		var snap *core.Snapshot
		var err error
		if cfg.paged {
			if pb, err = core.OpenPagedBase(path, cfg.pagedOpts); err == nil {
				snap = &core.Snapshot{K: pb.K(), Dim: pb.Dim(), LastSeq: pb.LastSeq(), NextHandle: pb.NextHandle()}
			}
		} else {
			snap, err = core.ReadPagedSnapshot(path)
		}
		if err == nil && snap.LastSeq != cs {
			// A checkpoint is found by its name, so one whose name lies about
			// the history it supersedes does not validate.
			err = fmt.Errorf("it supersedes seq %d", snap.LastSeq)
		}
		if err != nil {
			pb.Close()
			if skipped == "" {
				skipped = fmt.Sprintf("; checkpoint %s does not validate: %v", filepath.Base(path), err)
			}
			continue // fall back to an older one + replay
		}
		if snap.K != k || snap.Dim != dim {
			pb.Close()
			return nil, "", fmt.Errorf("wal: checkpoint is for k=%d dim=%d, index opened with k=%d dim=%d",
				snap.K, snap.Dim, k, dim)
		}
		if pb != nil {
			idx, err = core.RestoreDynamicORPKWFromBase(dim, k, cfg.bufferCap, pb, snap.NextHandle)
		} else {
			idx, err = core.RestoreDynamicORPKW(dim, k, cfg.bufferCap, snap.Handles, snap.Objs, snap.NextHandle)
		}
		if err != nil {
			pb.Close()
			return nil, "", fmt.Errorf("wal: restoring checkpoint %d: %w", cs, err)
		}
		base = snap.LastSeq
		break
	}
	if idx == nil {
		var err error
		idx, err = core.NewDynamicORPKW(dim, k, cfg.bufferCap)
		if err != nil {
			return nil, "", err
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

	// BRIDGE. Segments are named by their first sequence; the log rotates at
	// a checkpoint's pin and is pruned only after that checkpoint is
	// durable, so a log that starts after base+1 — or no log at all behind a
	// checkpoint that failed — means acknowledged history is missing, even
	// when the surviving tail is empty and replay would find nothing to
	// contradict the restored state.
	if len(ls.segs) > 0 && ls.segs[0] > base+1 || len(ls.segs) == 0 && skipped != "" {
		return nil, "", fmt.Errorf("%w: the recovered state ends at seq %d, log segments start at seqs %v%s",
			ErrCorrupt, base, ls.segs, skipped)
	}

	// REPLAY, through the one frame walk and the one apply rule.
	replayed := int64(0)
	for si, ss := range ls.segs {
		path := segmentPath(dir, ss)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, "", err
		}
		fr := frameReader{data: data}
		for {
			r, _, ok := fr.next()
			if !ok {
				break
			}
			if r.seq <= base {
				continue // superseded by the checkpoint
			}
			if err := apply(idx, &r, ErrCorrupt); err != nil {
				return nil, "", fmt.Errorf("%w (%s)", err, path)
			}
			replayed++
		}
		if fr.damage == nil {
			// ZERO-TAIL: the segment is read to its logical end.
			if fr.off < len(data) {
				if err := os.Truncate(path, int64(fr.off)); err != nil {
					return nil, "", fmt.Errorf("wal: truncating zero tail of %s: %w", path, err)
				}
			}
			continue
		}
		if si < len(ls.segs)-1 || anyValidFrameAfter(data, fr.off) {
			return nil, "", fmt.Errorf("%w: damaged frame at %s offset %d is not a torn tail (%v)",
				ErrCorrupt, path, fr.off, fr.damage)
		}
		// TORN-TAIL: nothing valid follows the damage.
		if err := os.Truncate(path, int64(fr.off)); err != nil {
			return nil, "", fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
		walTornTruncations.Inc()
	}
	next := idx.Seq() + 1 // a fresh segment starts there
	if len(ls.segs) > 0 {
		next = ls.segs[len(ls.segs)-1]
	}
	walRecoveries.Inc()
	walReplayedRecords.Add(replayed)
	walRecoveryNs.Observe(int64(time.Since(start)))
	recoverOK = true
	return idx, segmentPath(dir, next), nil
}
