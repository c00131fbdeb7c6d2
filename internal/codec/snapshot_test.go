package codec

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/pager"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		K: 2, Dim: 2, LastSeq: 41, NextHandle: 9,
		Handles: []int64{0, 3, 8},
		Objs: dataset.MustNew([]dataset.Object{
			{Point: geom.Point{0.1, 0.2}, Doc: []dataset.Keyword{1, 3}},
			{Point: geom.Point{-4, 8.5}, Doc: []dataset.Keyword{0}},
			{Point: geom.Point{7, 7}, Doc: []dataset.Keyword{2, 3, 9}},
		}),
	}
}

func encodeSnapshot(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePagedSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	raw := encodeSnapshot(t, s)
	got, err := ReadPagedSnapshot(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	snapshotsEqual(t, s, got)
}

func TestSnapshotEmpty(t *testing.T) {
	raw := encodeSnapshot(t, &Snapshot{K: 2, Dim: 3})
	got, err := ReadPagedSnapshot(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Handles) != 0 || got.Objs != nil || got.Dim != 3 {
		t.Fatalf("empty snapshot mangled: %+v", got)
	}
}

func TestSnapshotRejectsUnsortedHandles(t *testing.T) {
	for _, hs := range [][]int64{{5, 2, 8}, {0, 3, 3}, {-1, 3, 8}, {0, 3}} {
		s := sampleSnapshot()
		s.Handles = hs
		if err := WritePagedSnapshot(new(bytes.Buffer), s); err == nil {
			t.Fatalf("handles %v accepted", hs)
		}
	}
}

func TestSnapshotChecksumDetectsFlips(t *testing.T) {
	raw := encodeSnapshot(t, sampleSnapshot())
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		corrupted := append([]byte(nil), raw...)
		pos := rng.Intn(len(corrupted))
		corrupted[pos] ^= 1 << uint(rng.Intn(8))
		if _, err := ReadPagedSnapshot(bytes.NewReader(corrupted), int64(len(corrupted))); err == nil {
			t.Fatalf("trial %d: bit flip at %d undetected", trial, pos)
		}
	}
}

func TestSnapshotTruncation(t *testing.T) {
	raw := encodeSnapshot(t, sampleSnapshot())
	for cut := 0; cut < len(raw); cut++ {
		if _, err := ReadPagedSnapshot(bytes.NewReader(raw[:cut]), int64(cut)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: err = %v", cut, err)
		}
	}
}

// A small container claiming a huge entry count must fail cheaply with
// ErrCorrupt, not attempt a proportional allocation (the OOM hardening).
func TestSnapshotHugeClaimedCount(t *testing.T) {
	meta := PagedMeta{Kind: PagedKindSnapshot, K: 2, Dim: 2, Count: 1 << 30, NextHandle: 1 << 40}
	var buf bytes.Buffer
	if err := WriteContainer(&buf, meta.Encode(), []Section{
		{SecHandles, putI64s([]int64{0})},
		{SecDocStart, putI64s([]int64{0, 1})},
		{SecRowHandles, putI64s([]int64{0})},
		{SecEntryRank, putI32s([]int32{0})},
	}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 8*pager.PageSize {
		t.Fatalf("container is %d bytes, meant to be small", buf.Len())
	}
	if _, err := ReadPagedSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len())); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNoRankRows) {
		t.Fatalf("huge claimed count: err = %v", err)
	}
}
