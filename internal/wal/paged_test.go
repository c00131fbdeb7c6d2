package wal

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"kwsc/internal/codec"
	"kwsc/internal/core"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

// copyDir clones a durability directory file by file.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// buildPagedHistory populates dir with a checkpoint plus a WAL tail that
// inserts past it and deletes checkpointed (base-resident) handles.
func buildPagedHistory(t *testing.T, dir string) {
	t.Helper()
	d := mustOpen(t, dir)
	var handles []int64
	for i := 0; i < 120; i++ {
		handles = append(handles, mustInsert(t, d, i))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Tail: more inserts, plus deletes that land on checkpoint entries.
	for i := 120; i < 150; i++ {
		mustInsert(t, d, i)
	}
	for i := 0; i < 39; i += 3 {
		if ok, err := d.Delete(handles[i]); err != nil || !ok {
			t.Fatalf("Delete(%d): %v %v", handles[i], ok, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPagedRecoveryMatchesClassic recovers the same directory with and
// without paged recovery and demands identical state: the paged base plus
// WAL-tail replay is indistinguishable from a full decode.
func TestPagedRecoveryMatchesClassic(t *testing.T) {
	dirA := t.TempDir()
	buildPagedHistory(t, dirA)
	dirB := t.TempDir()
	copyDir(t, dirA, dirB)

	classic := mustOpen(t, dirA)
	defer classic.Close()
	paged := mustOpen(t, dirB, WithPagedRecovery(core.PagedBaseOptions{}))
	defer paged.Close()

	if paged.idx.Base() == nil {
		t.Fatal("paged recovery did not attach a base layer")
	}
	if classic.idx.Base() != nil {
		t.Fatal("classic recovery attached a base layer")
	}
	if paged.Len() != classic.Len() || paged.Seq() != classic.Seq() {
		t.Fatalf("paged len=%d seq=%d, classic len=%d seq=%d",
			paged.Len(), paged.Seq(), classic.Len(), classic.Seq())
	}
	if got, want := liveHandles(t, paged), liveHandles(t, classic); !reflect.DeepEqual(got, want) {
		t.Fatalf("live handles differ:\npaged   %v\nclassic %v", got, want)
	}

	// The histories stay in lockstep through further mutations, including
	// deletes of base-resident handles on the paged side.
	live := liveHandles(t, classic)
	for i := 0; i < 60; i++ {
		switch {
		case i%3 == 0 && len(live) > 0:
			h := live[0]
			live = live[1:]
			ok1, err1 := classic.Delete(h)
			ok2, err2 := paged.Delete(h)
			if err1 != nil || err2 != nil || !ok1 || !ok2 {
				t.Fatalf("step %d: delete(%d) = (%v,%v)/(%v,%v)", i, h, ok1, err1, ok2, err2)
			}
		default:
			h1 := mustInsert(t, classic, 1000+i)
			h2 := mustInsert(t, paged, 1000+i)
			if h1 != h2 {
				t.Fatalf("step %d: handles diverged: %d vs %d", i, h1, h2)
			}
			live = append(live, h1)
		}
	}
	if got, want := liveHandles(t, paged), liveHandles(t, classic); !reflect.DeepEqual(got, want) {
		t.Fatalf("live handles diverged after churn")
	}

	// A checkpoint + reopen cycle on the paged side round-trips the merged
	// state (base entries minus tombstones plus bucket entries).
	if err := paged.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := paged.Close(); err != nil {
		t.Fatal(err)
	}
	paged2 := mustOpen(t, dirB, WithPagedRecovery(core.PagedBaseOptions{NoMmap: true, CapPages: 16}))
	defer paged2.Close()
	if got, want := liveHandles(t, paged2), liveHandles(t, classic); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened paged state differs from classic")
	}
}

// TestCheckpointPruningDefersForPinnedBase is the pinned-file protocol: a
// checkpoint that supersedes the file the live base is serving from must not
// unlink it under the reader — deletion happens on the base's last unref.
func TestCheckpointPruningDefersForPinnedBase(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	for i := 0; i < 40; i++ {
		mustInsert(t, d, i)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	oldSeq := d.Seq()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	oldCkpt := checkpointPath(dir, oldSeq)

	d = mustOpen(t, dir, WithPagedRecovery(core.PagedBaseOptions{}))
	base := d.idx.Base()
	if base == nil {
		t.Fatal("no base attached")
	}
	for i := 40; i < 60; i++ {
		mustInsert(t, d, i)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The superseded checkpoint is retired, not removed: the base still
	// serves from it.
	if _, err := os.Stat(oldCkpt); err != nil {
		t.Fatalf("pinned checkpoint unlinked by pruning: %v", err)
	}
	all := geom.NewRect([]float64{-1, -1}, []float64{2, 2})
	if _, _, err := collectHandles(d, all, []dataset.Keyword{0, 1}); err != nil {
		t.Fatalf("query against retired-but-pinned base: %v", err)
	}
	// Close drops the base's reference — the deferred deletion fires.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(oldCkpt); !os.IsNotExist(err) {
		t.Fatalf("retired checkpoint still on disk after last unref (err=%v)", err)
	}
	// The directory reopens cleanly from the surviving checkpoint.
	d = mustOpen(t, dir, WithPagedRecovery(core.PagedBaseOptions{}))
	if d.Len() != 60 {
		t.Fatalf("Len = %d after reopen, want 60", d.Len())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPagedRecoveryRefusesCorruptCheckpoint flips one payload byte in the
// only checkpoint: mapped paged recovery must refuse it (checksum pass at
// open), and with no older checkpoint the WAL tail alone cannot bridge the
// gap, so Open fails rather than silently losing acknowledged state.
func TestPagedRecoveryRefusesCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	for i := 0; i < 50; i++ {
		mustInsert(t, d, i)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, d, 50)
	seq := d.Seq()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	p := checkpointPath(dir, seq-1)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := codec.ParseContainer(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	off, n, ok := c.Section(codec.SecPoints)
	if !ok {
		t.Fatal("no points section")
	}
	raw[off+n/2] ^= 0x01
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 2, 2, WithPagedRecovery(core.PagedBaseOptions{})); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt checkpoint recovery: err=%v, want ErrCorrupt", err)
	}
	// Classic recovery refuses the same directory the same way.
	if _, err := Open(dir, 2, 2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("classic recovery of corrupt checkpoint: err=%v, want ErrCorrupt", err)
	}
}

// TestCheckpointBytesPinned: the checkpoint of a fixed seeded history — one
// that carries, tombstones, rebuilds and leaves a part-filled buffer — hashes
// to a recorded SHA-256, so the bytes are a function of the entry set and a
// change to them is a decision, not an accident. Re-pinned when the rank
// order became the build's (9262852c… in the cell-snapped order): every row
// section and the postings follow the new ranks, and the stored tree
// (sections 13 and 14) replaces the cell boxes (section 10). The order
// itself is held to BuildORPKW's by core.TestCheckpointRanksAsBuildORPKW.
func TestCheckpointBytesPinned(t *testing.T) {
	const want = "a680ade1351d04f8b3d9a34ea8043bf5c2d95175ca94ce87eb553ff44297116e"
	dir := t.TempDir()
	d := mustOpen(t, dir, WithBufferCap(8))
	rng := rand.New(rand.NewSource(99))
	var live []int64
	for i := 0; i < 3000; i++ {
		if len(live) > 0 && rng.Intn(10) < 4 {
			j := rng.Intn(len(live))
			if ok, err := d.Delete(live[j]); err != nil || !ok {
				t.Fatalf("Delete(%d): ok=%v err=%v", live[j], ok, err)
			}
			live = append(live[:j], live[j+1:]...)
			continue
		}
		live = append(live, mustInsert(t, d, i))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p := checkpointPath(dir, d.Seq())
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want {
		t.Fatalf("checkpoint of %d entries (%d bytes) hashes to %s, want %s", d.Len(), len(raw), got, want)
	}
	d.Close()
}

// TestLogBytesPinned: a fixed 200-op insert/delete history writes the same
// segment bytes under every sync policy, and they hash to a recorded SHA-256.
// The policy decides only when the log is fsynced, and a frame reaches the
// file the same way whether it is written whole or, under an armed
// failpoint, in two halves; a change to the bytes is a decision, not an
// accident. The digest was recorded from a log that wrote every frame in two
// halves.
func TestLogBytesPinned(t *testing.T) {
	want := map[string]string{
		"wal-0000000000000001.log": "5f3cffd709b13bc8eb387c37505e840cb4da2adf869848a2a827f7f8562dc389",
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"every-op", []Option{WithSyncPolicy(SyncEveryOp)}},
		{"interval", []Option{withSyncInterval(time.Hour)}},
		{"none", []Option{WithSyncPolicy(SyncNone)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := mustOpen(t, dir, tc.opts...)
			rng := rand.New(rand.NewSource(47))
			var live []int64
			for i := 0; i < 200; i++ {
				if len(live) > 0 && rng.Intn(4) == 0 {
					j := rng.Intn(len(live))
					if ok, err := d.Delete(live[j]); err != nil || !ok {
						t.Fatalf("Delete(%d): ok=%v err=%v", live[j], ok, err)
					}
					live = append(live[:j], live[j+1:]...)
					continue
				}
				live = append(live, mustInsert(t, d, i))
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			got := map[string]string{}
			for _, name := range dirNames(t, dir) {
				if strings.HasSuffix(name, ".log") {
					raw, err := os.ReadFile(filepath.Join(dir, name))
					if err != nil {
						t.Fatal(err)
					}
					got[name] = fmt.Sprintf("%x", sha256.Sum256(raw))
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("segments hash to %v, want %v", got, want)
			}
		})
	}
}
