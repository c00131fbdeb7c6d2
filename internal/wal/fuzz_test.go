package wal

import (
	"os"
	"testing"
)

// FuzzReplayWAL throws arbitrary bytes at recovery as the first log segment
// and at an empty Durable as a shipped batch (ApplyShipped), the two readers
// of one frame walk and one apply rule. Neither may panic. When recovery
// accepts the input, the recovered store must be usable (insertable) and
// reopen to the same sequence — recovery is total over corrupt input and
// idempotent over accepted input — and the shipped batch must apply exactly
// as many records as recovery replayed.
func FuzzReplayWAL(f *testing.F) {
	// Seed with a genuine log (a handful of inserts and a delete), its
	// truncations, and bit-flipped variants — the interesting frontier is
	// near-valid input.
	dir := f.TempDir()
	d, err := Open(dir, 2, 2)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := d.Insert(testObj(i)); err != nil {
			f.Fatal(err)
		}
	}
	d.Delete(2)
	d.Close()
	golden, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(golden[:len(golden)-3])
	for _, pos := range []int{0, 4, 8, len(golden) / 2, len(golden) - 2} {
		flipped := append([]byte{}, golden...)
		flipped[pos] ^= 0x20
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	// A live or crashed segment ends in its preallocated window's zeros:
	// whole frames then zeros are a clean end, zeros then a valid frame are
	// damage, and a torn frame then zeros is a torn tail.
	zeros := make([]byte, 64)
	_, first, err := scanFrame(golden, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte{}, golden...), zeros...))
	f.Add(append(append([]byte{}, zeros...), golden[:first]...))
	f.Add(append(append([]byte{}, golden[:len(golden)-3]...), zeros...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// SyncNone: the target is the log reader, not fsync throughput.
		shipped, err := Open(t.TempDir(), 2, 2, WithSyncPolicy(SyncNone))
		if err != nil {
			t.Fatal(err)
		}
		applied, _, _ := shipped.ApplyShipped(data)
		shipped.Close()

		fdir := t.TempDir()
		if err := os.WriteFile(segmentPath(fdir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(fdir, 2, 2, WithSyncPolicy(SyncNone))
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		seq := d.Seq()
		if uint64(applied) != seq {
			t.Fatalf("recovery replayed %d records, the shipped batch applied %d", seq, applied)
		}
		if _, err := d.Insert(testObj(1000)); err != nil {
			t.Fatalf("accepted log, but store not insertable: %v", err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		d2, err := Open(fdir, 2, 2, WithSyncPolicy(SyncNone))
		if err != nil {
			t.Fatalf("accepted input failed to reopen: %v", err)
		}
		if got := d2.Seq(); got != seq+1 {
			t.Fatalf("reopen LastSeq = %d, want %d", got, seq+1)
		}
		d2.Close()
	})
}
