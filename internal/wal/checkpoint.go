package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"kwsc/internal/codec"
	"kwsc/internal/core"
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
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%016x.ckpt", lastSeq))
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

// writeCheckpointFile atomically persists a snapshot: encode to a tmp file,
// fsync it, rename into place, fsync the directory. The rename is the commit
// point — a crash anywhere before it leaves only an ignorable tmp file, and
// rename-then-crash leaves a complete checkpoint.
//
// Checkpoints are written in the paged KWCP2 layout so a later open can
// serve them in place.
func writeCheckpointFile(dir string, snap *codec.Snapshot) error {
	var buf bytes.Buffer
	if err := codec.WritePagedSnapshot(&buf, snap); err != nil {
		return err
	}
	final := checkpointPath(dir, snap.LastSeq)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := writeSplit(f, buf.Bytes(), FPCheckpointWrite); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	core.Failpoint(FPCheckpointRename)
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so renames and creates within it are durable.
func SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
