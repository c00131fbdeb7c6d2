package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"kwsc/internal/core"
	"kwsc/internal/pager"
)

// File naming: segments and checkpoints carry their sequence position in the
// name, zero-padded hex so lexicographic order is numeric order.
//
//	wal-<startSeq>.log        frames with seq >= startSeq
//	checkpoint-<lastSeq>.ckpt snapshot superseding all seq <= lastSeq

func segmentPath(dir string, startSeq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", startSeq))
}

func checkpointPath(dir string, lastSeq uint64) string {
	return filepath.Join(dir, CheckpointFileName(lastSeq))
}

// parseSeq extracts the hex sequence from a file name with the given prefix
// and suffix; ok is false for foreign files.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(mid, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// dirFiles is one listing of a durable directory: the sequences its
// checkpoints supersede (newest first), the sequences its segments start at
// (oldest first), and the names of its *.tmp litter.
type dirFiles struct {
	ckpts, segs []uint64
	tmps        []string
}

// listDir lists dir. It is the one reader of a durable directory's names:
// recovery, pruning, the shipper and a follower's bootstrap all see the
// directory through it.
func listDir(dir string) (dirFiles, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return dirFiles{}, err
	}
	var ls dirFiles
	for _, de := range des {
		name := de.Name()
		if strings.HasSuffix(name, ".tmp") {
			ls.tmps = append(ls.tmps, name)
		} else if s, ok := parseSeq(name, "checkpoint-", ".ckpt"); ok {
			ls.ckpts = append(ls.ckpts, s)
		} else if s, ok := parseSeq(name, "wal-", ".log"); ok {
			ls.segs = append(ls.segs, s)
		}
	}
	sort.Slice(ls.ckpts, func(a, b int) bool { return ls.ckpts[a] > ls.ckpts[b] })
	sort.Slice(ls.segs, func(a, b int) bool { return ls.segs[a] < ls.segs[b] })
	return ls, nil
}

// writeCheckpointFile persists a snapshot with pager.WriteAtomic, whose
// rename is the commit point: a crash before it leaves only an ignorable tmp
// file. FPCheckpointWrite splits the write and FPCheckpointRename fires just
// before the rename.
//
// Checkpoints are written in the paged KWCP2 layout so a later open can
// serve them in place.
func writeCheckpointFile(dir string, snap *core.Snapshot) error {
	var buf bytes.Buffer
	if err := core.WritePagedSnapshot(&buf, snap); err != nil {
		return err
	}
	return pager.WriteAtomic(checkpointPath(dir, snap.LastSeq),
		func(f *os.File) error {
			return writeSplit(buf.Bytes(), FPCheckpointWrite, func(b []byte) error { _, err := f.Write(b); return err })
		},
		func(string) error { core.Failpoint(FPCheckpointRename); return nil })
}
