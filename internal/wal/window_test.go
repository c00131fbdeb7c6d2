package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"

	"kwsc/internal/core"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/pager"
)

// Tests of the mapped log: a live or crashed segment ends in the zeros of its
// preallocated window, and every reader — recovery, DirHasState, the shipper,
// a follower — must take them for the segment's clean end, never for a torn
// tail or for damage. The TestCrash… ones run under `make crash`.

// refuseWindows makes every segment the test opens take the write(2) path,
// as on a file system that refuses fallocate, and counts the refusals.
func refuseWindows(t *testing.T) *int {
	t.Helper()
	calls := new(int)
	mapWindow = func(*os.File, int64, int64) ([]byte, error) {
		*calls++
		return nil, pager.ErrNoWindow
	}
	t.Cleanup(func() { mapWindow = pager.MapWindow })
	return calls
}

// logicalEnd walks a segment's bytes and returns where its frames end; a
// walk that stops at damage fails the test.
func logicalEnd(t *testing.T, data []byte) int {
	t.Helper()
	fr := frameReader{data: data}
	for {
		if _, _, ok := fr.next(); !ok {
			break
		}
	}
	if fr.damage != nil {
		t.Fatalf("segment damaged at offset %d: %v", fr.off, fr.damage)
	}
	return fr.off
}

// frameBytes is the frame the log writes around payload.
func frameBytes(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// TestCrashDuringRotationLeavesZeroTail crashes a checkpoint's rotation after
// it opened wal-<S+1>.log and before it closed the old segment, which keeps
// the zeros of its window though it is no longer the final segment. Recovery
// must read it to its logical end: every acked op back, no torn tail counted.
func TestCrashDuringRotationLeavesZeroTail(t *testing.T) {
	dir := t.TempDir()
	ops := crashWorkload(3, 30)
	d := mustOpen(t, dir, WithAutoCheckpoint(10))
	armCrash(t, FPRotate, 1)
	acked, crashed := runUntilCrash(t, d, ops, map[int]int64{})
	if !crashed || acked != 9 {
		t.Fatalf("acked %d ops, crashed %v; want the 10th op's checkpoint to crash at its rotation", acked, crashed)
	}
	settle(d)
	old, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segmentPath(dir, 11)); err != nil {
		t.Fatalf("the rotation opened no wal-<S+1>.log: %v (dir %v)", err, dirNames(t, dir))
	}
	end := logicalEnd(t, old)
	if end == len(old) {
		t.Fatalf("the old segment holds no zero tail (%d bytes, all frames)", len(old))
	}
	before := walTornTruncations.Load()
	crashAndRecover(t, dir, ops, acked)
	if got := walTornTruncations.Load() - before; got != 0 {
		t.Fatalf("recovery counted %d torn tails over a zero tail", got)
	}
	if st, err := os.Stat(segmentPath(dir, 1)); err != nil || st.Size() != int64(end) {
		t.Fatalf("the old segment is %v bytes after recovery (%v), want its logical end %d", st.Size(), err, end)
	}
}

// TestCrashFreshSegmentHoldsNoState: a segment whose first append mapped its
// window and then died before the copy is one window of zeros. It holds no
// acknowledged record, so DirHasState reports no state, and recovery opens
// an empty index over it without counting a torn tail.
func TestCrashFreshSegmentHoldsNoState(t *testing.T) {
	dir := t.TempDir()
	path := segmentPath(dir, 1)
	l, err := openLog(path, SyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.remap(frameHeader + 1); err != nil { // the first append's remap
		t.Fatal(err)
	}
	defer func() { pager.UnmapWindow(l.win); l.f.Close() }()
	if st, err := os.Stat(path); err != nil || st.Size() != logWindow {
		t.Fatalf("the crashed segment is %v bytes (%v), want one window of %d", st.Size(), err, logWindow)
	}
	if has, err := DirHasState(dir); err != nil || has {
		t.Fatalf("DirHasState = %v, %v over a segment of zeros; want no state", has, err)
	}
	before := walTornTruncations.Load()
	d := mustOpen(t, dir)
	defer d.Close()
	if d.Seq() != 0 || walTornTruncations.Load() != before {
		t.Fatalf("recovered seq %d, torn tails counted %d; want 0 and 0", d.Seq(), walTornTruncations.Load()-before)
	}
}

// TestCrashCollectTailOnLiveSegment ships from a segment still being
// appended to: CollectTail must return exactly the acked frames — the bytes
// the closed segment holds — and a follower must apply all of them, with no
// damage and no torn retry.
func TestCrashCollectTailOnLiveSegment(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, WithSyncPolicy(SyncNone))
	for i := 0; i < 20; i++ {
		mustInsert(t, d, i)
	}
	live, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if end := logicalEnd(t, live); end == len(live) {
		t.Fatalf("the live segment holds no zero tail (%d bytes, all frames)", len(live))
	}
	frames, shippedTo, err := CollectTail(dir, 0, d.Seq(), 1<<20)
	if err != nil || shippedTo != 20 {
		t.Fatalf("CollectTail shipped to %d: %v; want 20 and no error", shippedTo, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	closed, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frames, closed) {
		t.Fatalf("shipped %d bytes, the closed segment holds %d", len(frames), len(closed))
	}
	f := mustOpen(t, t.TempDir(), WithSyncPolicy(SyncNone))
	defer f.Close()
	if applied, torn, err := f.ApplyShipped(frames); applied != 20 || torn || err != nil {
		t.Fatalf("ApplyShipped: applied %d, torn %v, err %v; want 20, false, nil", applied, torn, err)
	}
}

// TestCrashFailedAppendLeavesNoStaleBytes: an append that dies mid-frame
// leaves part of its frame past the logical end; the next append, a shorter
// one, must not leave any of those bytes behind its own frame. Mapped, the
// live segment holds only zeros after it; on the write(2) path nothing; and
// closed, it holds exactly the acked frames.
func TestCrashFailedAppendLeavesNoStaleBytes(t *testing.T) {
	long := dataset.Object{Point: geom.Point{0.25, 0.75}, Doc: make([]dataset.Keyword, 40)}
	for i := range long.Doc {
		long.Doc[i] = dataset.Keyword(i)
	}
	first := appendRecord(nil, &record{seq: 1, op: opInsert, handle: 0, obj: long})
	failed := appendRecord(nil, &record{seq: 2, op: opInsert, handle: 1, obj: long})
	short := appendRecord(nil, &record{seq: 2, op: opDelete, handle: 0})
	want := append(frameBytes(first), frameBytes(short)...)
	for _, writes := range []bool{false, true} {
		name := "mapped"
		if writes {
			name = "write"
		}
		t.Run(name, func(t *testing.T) {
			if writes {
				refuseWindows(t)
			}
			path := segmentPath(t.TempDir(), 1)
			l, err := openLog(path, SyncNone, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.append(first); err != nil {
				t.Fatal(err)
			}
			armCrash(t, FPAppend, 1)
			func() {
				defer func() {
					if _, ok := recover().(crashPanic); !ok {
						t.Fatal("the armed append did not die mid-frame")
					}
				}()
				l.append(failed)
			}()
			core.DisarmAllFailpoints()
			if err := l.append(short); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) < len(want) || !bytes.Equal(data[:len(want)], want) || !isZero(data[len(want):]) {
				t.Fatalf("live segment holds %d bytes; want the %d of the acked frames, then zeros only", len(data), len(want))
			}
			if err := l.close(); err != nil {
				t.Fatal(err)
			}
			if data, err = os.ReadFile(path); err != nil || !bytes.Equal(data, want) {
				t.Fatalf("closed segment holds %d bytes (%v); want exactly the %d of the acked frames", len(data), err, len(want))
			}
		})
	}
}

// TestLogWriteFallback runs the pinned history and the torn-append crashes
// on the write(2) path a file system without fallocate takes: the same
// segment bytes, the same one torn tail, and one refused window per segment,
// asked for at its first append and never again.
func TestLogWriteFallback(t *testing.T) {
	calls := refuseWindows(t)
	TestLogBytesPinned(t)
	if *calls != 3 {
		t.Fatalf("%d windows asked for over the three pinned segments, want 3", *calls)
	}
	TestCrashDuringAppend(t)
}
