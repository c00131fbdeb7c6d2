package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"kwsc/internal/codec"
	"kwsc/internal/core"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

// handleQuerier is the query surface Durable and DynSnapshot share.
type handleQuerier interface {
	Query(*geom.Rect, []dataset.Keyword, core.QueryOpts, func(int64, *dataset.Object)) (core.QueryStats, error)
}

// collectHandles answers q and ws with no options, returning the handles.
func collectHandles(ix handleQuerier, q *geom.Rect, ws []dataset.Keyword) ([]int64, core.QueryStats, error) {
	var out []int64
	st, err := ix.Query(q, ws, core.QueryOpts{}, func(h int64, _ *dataset.Object) { out = append(out, h) })
	return out, st, err
}

// testObj builds a deterministic object from a seed.
func testObj(seed int) dataset.Object {
	r := rand.New(rand.NewSource(int64(seed)))
	// Docs hold 2-4 *distinct* keywords so every object is reachable by at
	// least one 2-distinct-keyword query (k=2 in these tests).
	perm := r.Perm(8)
	doc := make([]dataset.Keyword, 2+r.Intn(3))
	for i := range doc {
		doc[i] = dataset.Keyword(perm[i])
	}
	return dataset.Object{
		Point: geom.Point{r.Float64(), r.Float64()},
		Doc:   doc,
	}
}

// withSyncInterval selects SyncInterval with a period other than Open's
// one second, for tests that need the timer to fire or never to.
func withSyncInterval(d time.Duration) Option {
	return func(c *config) { c.policy, c.interval = SyncInterval, d }
}

func mustOpen(t *testing.T, dir string, opts ...Option) *Durable {
	t.Helper()
	d, err := Open(dir, 2, 2, opts...)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return d
}

func mustInsert(t *testing.T, d *Durable, seed int) int64 {
	t.Helper()
	h, err := d.Insert(testObj(seed))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	return h
}

// liveHandles returns every live handle via an everything query.
func liveHandles(t *testing.T, d *Durable) []int64 {
	t.Helper()
	all := geom.NewRect([]float64{-1, -1}, []float64{2, 2})
	var out []int64
	seen := map[int64]bool{}
	// Query per keyword pair cannot enumerate docs missing a pair, so walk
	// the snapshot through Len/Collect over the full vocabulary instead.
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			hs, _, err := collectHandles(d, all, []dataset.Keyword{dataset.Keyword(a), dataset.Keyword(b)})
			if err != nil {
				t.Fatalf("Collect: %v", err)
			}
			for _, h := range hs {
				if !seen[h] {
					seen[h] = true
					out = append(out, h)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	obj := dataset.Object{Point: geom.Point{0.25, -3}, Doc: []dataset.Keyword{1, 4, 9}}
	for _, r := range []record{
		{seq: 1, op: opInsert, handle: 0, obj: obj},
		{seq: 77, op: opInsert, handle: 1 << 40, obj: obj},
		{seq: 78, op: opDelete, handle: 3},
	} {
		buf := appendRecord(nil, &r)
		got, err := decodeRecord(buf)
		if err != nil {
			t.Fatalf("decodeRecord(%+v): %v", r, err)
		}
		if got.seq != r.seq || got.op != r.op || got.handle != r.handle {
			t.Fatalf("round trip: got %+v want %+v", got, r)
		}
		if r.op == opInsert {
			if !reflect.DeepEqual(got.obj, r.obj) {
				t.Fatalf("object round trip: got %+v want %+v", got.obj, r.obj)
			}
		}
	}
}

func TestDecodeRecordRejects(t *testing.T) {
	obj := dataset.Object{Point: geom.Point{1, 2}, Doc: []dataset.Keyword{2, 5}}
	good := appendRecord(nil, &record{seq: 9, op: opInsert, handle: 4, obj: obj})
	cases := map[string][]byte{
		"empty":          {},
		"unknown op":     append(binary.AppendUvarint(nil, 5), 99),
		"trailing bytes": append(append([]byte{}, good...), 0),
		"truncated":      good[:len(good)-1],
	}
	for name, payload := range cases {
		if _, err := decodeRecord(payload); err == nil {
			t.Errorf("%s: decodeRecord accepted invalid payload", name)
		}
	}
	// Non-increasing keywords (delta 0 after the first) must be rejected:
	// replay depends on canonical sorted/deduped documents.
	dup := dataset.Object{Point: geom.Point{1, 2}, Doc: []dataset.Keyword{5, 5}}
	bad := appendRecord(nil, &record{seq: 1, op: opInsert, handle: 0, obj: dup})
	if _, err := decodeRecord(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("duplicate keyword: got %v, want ErrCorrupt", err)
	}
}

func TestScanFrame(t *testing.T) {
	p1, p2 := []byte("hello"), []byte("world!!")
	var data []byte
	for _, p := range [][]byte{p1, p2} {
		data = binary.LittleEndian.AppendUint32(data, uint32(len(p)))
		data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(p, castagnoli))
		data = append(data, p...)
	}
	got1, next, err := scanFrame(data, 0)
	if err != nil || string(got1) != "hello" {
		t.Fatalf("frame 1: %q %v", got1, err)
	}
	got2, next, err := scanFrame(data, next)
	if err != nil || string(got2) != "world!!" {
		t.Fatalf("frame 2: %q %v", got2, err)
	}
	// Clean EOF at exact end.
	if _, _, err := scanFrame(data, next); err != io.EOF {
		t.Fatalf("at end: got %v, want io.EOF", err)
	}
	// Torn header.
	if _, _, err := scanFrame(data[:3], 0); !errors.Is(err, errTorn) {
		t.Fatalf("partial header: got %v want errTorn", err)
	}
	// Torn body.
	if _, _, err := scanFrame(data[:frameHeader+2], 0); !errors.Is(err, errTorn) {
		t.Fatalf("partial body: got %v want errTorn", err)
	}
	// Flipped payload bit.
	bad := append([]byte{}, data...)
	bad[frameHeader] ^= 0x40
	if _, _, err := scanFrame(bad, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped bit: got %v want ErrCorrupt", err)
	}
	// Implausible length.
	huge := binary.LittleEndian.AppendUint32(nil, 1<<30)
	huge = append(huge, 0, 0, 0, 0)
	if _, _, err := scanFrame(huge, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge length: got %v want ErrCorrupt", err)
	}
}

// TestOpenInsertDeleteReopen: a reopen recovers the acked state from the
// log, and counts one recovery of the 25 records it replayed.
func TestOpenInsertDeleteReopen(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	var handles []int64
	for i := 0; i < 20; i++ {
		handles = append(handles, mustInsert(t, d, i))
	}
	for _, h := range handles[:5] {
		ok, err := d.Delete(h)
		if err != nil || !ok {
			t.Fatalf("Delete(%d): %v %v", h, ok, err)
		}
	}
	if ok, err := d.Delete(99999); err != nil || ok {
		t.Fatalf("Delete(unknown): ok=%v err=%v (want false, nil)", ok, err)
	}
	wantLive := liveHandles(t, d)
	wantLen, wantSeq := d.Len(), d.Seq()
	if wantSeq != 25 {
		t.Fatalf("LastSeq = %d, want 25 (20 inserts + 5 deletes)", wantSeq)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := d.Insert(testObj(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close: %v, want ErrClosed", err)
	}

	recoveries0, replayed0, recoveryNs0 := walRecoveries.Load(), walReplayedRecords.Load(), walRecoveryNs.Count()
	d2 := mustOpen(t, dir)
	defer d2.Close()
	for _, m := range []struct {
		name      string
		got, want int64
	}{
		{"kwsc_wal_recoveries_total", walRecoveries.Load() - recoveries0, 1},
		{"kwsc_wal_recovery_replayed_records_total", walReplayedRecords.Load() - replayed0, 25},
		{"kwsc_wal_recovery_ns count", walRecoveryNs.Count() - recoveryNs0, 1},
	} {
		if m.got != m.want {
			t.Fatalf("reopen moved %s by %d, want %d", m.name, m.got, m.want)
		}
	}
	if d2.Len() != wantLen {
		t.Fatalf("recovered Len = %d, want %d", d2.Len(), wantLen)
	}
	if d2.Seq() != wantSeq {
		t.Fatalf("recovered LastSeq = %d, want %d", d2.Seq(), wantSeq)
	}
	if got := liveHandles(t, d2); !reflect.DeepEqual(got, wantLive) {
		t.Fatalf("recovered handles %v, want %v", got, wantLive)
	}
	// Handles keep incrementing across recovery: no reuse.
	if h := mustInsert(t, d2, 100); h != 20 {
		t.Fatalf("post-recovery handle = %d, want 20", h)
	}
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 4, 7, 9} { // inside header and inside body
		dir := t.TempDir()
		d := mustOpen(t, dir)
		for i := 0; i < 8; i++ {
			mustInsert(t, d, i)
		}
		d.Close()
		seg := segmentPath(dir, 1)
		// Append a frame prefix: a torn write of a 9th op.
		full := appendRecord(nil, &record{seq: 9, op: opInsert, handle: 8, obj: testObj(8)})
		var frame []byte
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(full)))
		frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(full, castagnoli))
		frame = append(frame, full...)
		st, _ := os.Stat(seg)
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(frame[:cut])
		f.Close()

		d2 := mustOpen(t, dir)
		if d2.Seq() != 8 {
			t.Fatalf("cut=%d: LastSeq = %d, want 8 (torn tail dropped)", cut, d2.Seq())
		}
		if d2.Len() != 8 {
			t.Fatalf("cut=%d: Len = %d, want 8", cut, d2.Len())
		}
		if st2, _ := os.Stat(seg); st2.Size() != st.Size() {
			t.Fatalf("cut=%d: segment size %d after recovery, want truncated to %d", cut, st2.Size(), st.Size())
		}
		// The log stays appendable after truncation.
		if h := mustInsert(t, d2, 8); h != 8 {
			t.Fatalf("cut=%d: handle after truncation = %d, want 8", cut, h)
		}
		d2.Close()
	}
}

// Replay runs through Insert, so a logged insert with a NaN coordinate —
// which Insert refuses and so never writes — fails recovery by its seq.
func TestReplayRefusesNaNInsert(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	for i := 0; i < 8; i++ {
		mustInsert(t, d, i)
	}
	d.Close()
	obj := testObj(8)
	obj.Point[1] = math.NaN()
	rec := appendRecord(nil, &record{seq: 9, op: opInsert, handle: 8, obj: obj})
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(rec)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(rec, castagnoli))
	f, err := os.OpenFile(segmentPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(append(frame, rec...))
	f.Close()
	if _, err := Open(dir, 2, 2); err == nil || !strings.Contains(err.Error(), "wal: replaying insert seq 9: ") || !strings.Contains(err.Error(), "NaN coordinate") {
		t.Fatalf("Open over a logged NaN insert: %v", err)
	}
}

func TestMidLogCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	for i := 0; i < 10; i++ {
		mustInsert(t, d, i)
	}
	d.Close()
	seg := segmentPath(dir, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside the third frame's payload: valid frames follow, so
	// recovery must refuse rather than truncate acknowledged history.
	off := 0
	for i := 0; i < 2; i++ {
		_, next, err := scanFrame(data, off)
		if err != nil {
			t.Fatal(err)
		}
		off = next
	}
	data[off+frameHeader+1] ^= 0x10
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 2, 2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on mid-log corruption: %v, want ErrCorrupt", err)
	}
	// The damaged file must not have been truncated.
	if st, _ := os.Stat(seg); st.Size() != int64(len(data)) {
		t.Fatalf("segment truncated to %d despite mid-log corruption", st.Size())
	}
}

func TestSequenceGapRefused(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	for i := 0; i < 6; i++ {
		mustInsert(t, d, i)
	}
	d.Close()
	seg := segmentPath(dir, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Remove the middle frame wholesale (checksums stay valid) — a gap.
	off := 0
	var ends []int
	for {
		_, next, err := scanFrame(data, off)
		if err != nil {
			break
		}
		ends = append(ends, next)
		off = next
	}
	gapped := append(append([]byte{}, data[:ends[1]]...), data[ends[2]:]...)
	if err := os.WriteFile(seg, gapped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 2, 2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on sequence gap: %v, want ErrCorrupt", err)
	}
}

func TestCheckpointSupersedesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	for i := 0; i < 12; i++ {
		mustInsert(t, d, i)
	}
	d.Delete(0)
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Post-checkpoint dir: exactly one checkpoint (seq 13) and the fresh
	// active segment (start 14); the pre-checkpoint segment is pruned.
	names := dirNames(t, dir)
	want := []string{"checkpoint-000000000000000d.ckpt", "wal-000000000000000e.log"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("after checkpoint: dir = %v, want %v", names, want)
	}
	// More ops land in the new segment; recovery = checkpoint + tail replay.
	mustInsert(t, d, 20)
	d.Delete(3)
	wantLive, wantLen := liveHandles(t, d), d.Len()
	d.Close()

	d2 := mustOpen(t, dir)
	defer d2.Close()
	if d2.Len() != wantLen || !reflect.DeepEqual(liveHandles(t, d2), wantLive) {
		t.Fatalf("recovery from checkpoint+tail: Len=%d want %d, handles %v want %v",
			d2.Len(), wantLen, liveHandles(t, d2), wantLive)
	}
	if d2.Seq() != 15 {
		t.Fatalf("LastSeq = %d, want 15", d2.Seq())
	}
}

func TestCheckpointWithoutNewOps(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	mustInsert(t, d, 1)
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("first checkpoint: %v", err)
	}
	// No ops since: the active segment already starts at seq+1, so the
	// second checkpoint must not rotate into the same file or fail.
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("idempotent checkpoint: %v", err)
	}
	mustInsert(t, d, 2)
	d.Close()
	d2 := mustOpen(t, dir)
	defer d2.Close()
	if d2.Len() != 2 || d2.Seq() != 2 {
		t.Fatalf("after idempotent checkpoint: Len=%d LastSeq=%d, want 2, 2", d2.Len(), d2.Seq())
	}
}

func TestDamagedCheckpointFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	for i := 0; i < 6; i++ {
		mustInsert(t, d, i)
	}
	if err := d.Checkpoint(); err != nil { // checkpoint A at seq 6
		t.Fatal(err)
	}
	for i := 6; i < 10; i++ {
		mustInsert(t, d, i)
	}
	// Preserve the pre-checkpoint-B state: simulate a crash where checkpoint
	// B was written but pruning had not happened yet.
	saved := map[string][]byte{}
	for _, name := range dirNames(t, dir) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		saved[name] = b
	}
	if err := d.Checkpoint(); err != nil { // checkpoint B at seq 10, prunes A
		t.Fatal(err)
	}
	wantLive, wantLen := liveHandles(t, d), d.Len()
	d.Close()
	for name, b := range saved { // un-prune: restore A and its segments
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Damage checkpoint B. Recovery must fall back to A and replay the
	// surviving segments to the same state.
	bPath := checkpointPath(dir, 10)
	b, err := os.ReadFile(bPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(bPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := mustOpen(t, dir)
	defer d2.Close()
	if d2.Len() != wantLen || !reflect.DeepEqual(liveHandles(t, d2), wantLive) {
		t.Fatalf("fallback recovery: Len=%d want %d", d2.Len(), wantLen)
	}
	if d2.Seq() != 10 {
		t.Fatalf("fallback recovery LastSeq = %d, want 10", d2.Seq())
	}
}

// TestSoleDamagedCheckpointRefused: the only checkpoint does not validate and
// the log tail behind it is empty, so nothing contradicts an empty index —
// recovery must refuse the directory instead of acking the next insert as
// handle 0 into a log that starts at seq 52. The legacy case plants a KWCP v1
// stream, which is one more file that does not validate, and so are the
// checkpoints as the two formats before rows were stored by rank wrote
// them, sound but for the rows by rank they lack, refused by name: pre-rank
// has no rank section at all, pr-24 the rank -> entry column beside
// documents in entry order.
func TestSoleDamagedCheckpointRefused(t *testing.T) {
	legacy := []byte("KWCP\x01\x02\x02\x33\x32\x00") // k=2 dim=2 lastSeq=51 nextHandle=50 count=0
	legacy = binary.LittleEndian.AppendUint32(legacy, crc32.Checksum(legacy, crc32.MakeTable(crc32.Castagnoli)))
	// olderFormat re-seals raw without the sections by rank and, for PR 24's
	// format, with its rank -> entry column and entry-ordered documents.
	olderFormat := func(pr24 bool) func(raw []byte) []byte {
		return func(raw []byte) []byte {
			// Read the entries as recovery into memory does.
			path := filepath.Join(t.TempDir(), "read.ckpt")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			snap, err := core.ReadPagedSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			_, docStart, docWords := snap.Objs.Columns()
			c, err := codec.ParseContainer(bytes.NewReader(raw), int64(len(raw)))
			if err != nil {
				t.Fatal(err)
			}
			var secs []codec.Section
			for _, s := range c.Sections[1:] {
				data, err := c.SectionBytes(bytes.NewReader(raw), s.ID)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case s.ID == codec.SecRowHandles || !pr24 && (s.ID == codec.SecEntryRank || s.ID == codec.SecTreeSpans || s.ID == codec.SecTreeBoxes):
					continue
				case s.ID == codec.SecEntryRank:
					rankEntry := make([]int32, len(data)/4)
					for e, r := range codec.Get[int32](data) {
						rankEntry[r] = int32(e)
					}
					s.ID, data = codec.SecRankEntry, codec.Put(rankEntry)
				case s.ID == codec.SecDocStart:
					data = codec.Put(docStart)
				case s.ID == codec.SecDocWords:
					data = codec.Put(docWords)
				}
				secs = append(secs, codec.Section{ID: s.ID, Data: data})
			}
			var out bytes.Buffer
			if err := codec.WriteContainer(&out, c.Meta, secs); err != nil {
				t.Fatal(err)
			}
			return out.Bytes()
		}
	}
	for name, damage := range map[string]func([]byte) []byte{
		"flipped":  func(b []byte) []byte { b[len(b)/2] ^= 0xff; b[len(b)/2+1] ^= 0xff; return b },
		"legacy":   func([]byte) []byte { return legacy },
		"pre-rank": olderFormat(false),
		"pr-24":    olderFormat(true),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d := mustOpen(t, dir)
			for i := 0; i < 50; i++ {
				mustInsert(t, d, i)
			}
			d.Delete(7)
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			d.Close()
			p := checkpointPath(dir, 51)
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, damage(b), 0o644); err != nil {
				t.Fatal(err)
			}
			refused := func() {
				for _, opts := range [][]Option{nil, {WithPagedRecovery(core.PagedBaseOptions{})}} {
					d2, err := Open(dir, 2, 2, opts...)
					if err == nil {
						t.Fatalf("opened with err == nil, Len() = %d, LastSeq() = %d", d2.Len(), d2.Seq())
					}
					if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), filepath.Base(p)) {
						t.Fatalf("err = %v, want ErrCorrupt naming %s", err, filepath.Base(p))
					}
					if (name == "pre-rank" || name == "pr-24") && !strings.Contains(err.Error(), "snapshot has no rows by rank") {
						t.Fatalf("err = %v, want the missing rows by rank named", err)
					}
				}
			}
			refused()
			// The same with no segment at all (a copied-out checkpoint).
			if err := os.Remove(segmentPath(dir, 52)); err != nil {
				t.Fatal(err)
			}
			refused()
		})
	}
}

// TestLogStartingAfterCheckpointRefused: the older checkpoint validates but
// the segment that bridged it to the damaged newer one is gone, and the
// surviving segment is empty — no sequence gap for replay to trip over.
func TestLogStartingAfterCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	for i := 0; i < 6; i++ {
		mustInsert(t, d, i)
	}
	if err := d.Checkpoint(); err != nil { // checkpoint A at seq 6
		t.Fatal(err)
	}
	pa, pb := checkpointPath(dir, 6), checkpointPath(dir, 10)
	a, err := os.ReadFile(pa)
	if err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 10; i++ {
		mustInsert(t, d, i)
	}
	if err := d.Checkpoint(); err != nil { // checkpoint B at seq 10; prunes A and wal-7
		t.Fatal(err)
	}
	d.Close()
	if err := os.WriteFile(pa, a, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(pb)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(pb, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 2, 2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open: err = %v, want ErrCorrupt (log starts at 11, state ends at 6)", err)
	}
}

func TestConfigMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	mustInsert(t, d, 1)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := Open(dir, 3, 2); err == nil {
		t.Fatal("Open with wrong dim accepted a checkpoint for dim=2")
	}
	if _, err := Open(dir, 2, 4); err == nil {
		t.Fatal("Open with wrong k accepted a checkpoint for k=2")
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"every-op", []Option{WithSyncPolicy(SyncEveryOp)}},
		{"interval", []Option{withSyncInterval(5 * time.Millisecond)}},
		{"none", []Option{WithSyncPolicy(SyncNone)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := mustOpen(t, dir, tc.opts...)
			for i := 0; i < 10; i++ {
				mustInsert(t, d, i)
			}
			if err := d.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			d2 := mustOpen(t, dir)
			defer d2.Close()
			if d2.Len() != 10 {
				t.Fatalf("recovered Len = %d, want 10", d2.Len())
			}
		})
	}
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, WithAutoCheckpoint(5))
	for i := 0; i < 12; i++ {
		mustInsert(t, d, i)
	}
	d.Close()
	// 12 ops with a checkpoint every 5 → last checkpoint at seq 10.
	if _, err := os.Stat(checkpointPath(dir, 10)); err != nil {
		t.Fatalf("auto-checkpoint at seq 10 missing: %v (dir: %v)", err, dirNames(t, dir))
	}
	d2 := mustOpen(t, dir)
	defer d2.Close()
	if d2.Len() != 12 || d2.Seq() != 12 {
		t.Fatalf("after auto-checkpoints: Len=%d LastSeq=%d, want 12, 12", d2.Len(), d2.Seq())
	}
}

// returnsWithin reports whether done is closed within d.
func returnsWithin(done <-chan struct{}, d time.Duration) bool {
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// TestAutoCheckpointOffTheWritePath holds an automatic checkpoint's
// background writer: the triggering insert returns and later writes go on
// while the file is unwritten, the next trigger waits for it, Close waits for
// the one after, and what lands is byte for byte the synchronous
// Checkpoint's at the same seq.
func TestAutoCheckpointOffTheWritePath(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, WithAutoCheckpoint(5))
	// Park each background writer as it starts until the test releases it.
	started, release := make(chan struct{}), make(chan struct{})
	core.ArmFailpoint(FPCheckpointBegin, func() {
		started <- struct{}{}
		<-release
	})
	t.Cleanup(core.DisarmAllFailpoints)
	for i := 0; i < 4; i++ {
		mustInsert(t, d, i)
	}
	triggered := make(chan struct{})
	go func() {
		defer close(triggered)
		if _, err := d.Insert(testObj(4)); err != nil { // seq 5 triggers the checkpoint
			t.Errorf("Insert: %v", err)
		}
	}()
	<-started
	if !returnsWithin(triggered, 5*time.Second) {
		t.Fatal("the triggering insert waited for the checkpoint's writer")
	}
	for i := 5; i < 9; i++ {
		mustInsert(t, d, i)
	}
	// The log rotated at the pin; the file is not written yet.
	if _, err := os.Stat(segmentPath(dir, 6)); err != nil {
		t.Fatalf("log not rotated at the pin: %v (dir %v)", err, dirNames(t, dir))
	}
	if _, err := os.Stat(checkpointPath(dir, 5)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint 5 exists while its writer is held (err %v)", err)
	}
	trigger := make(chan struct{})
	go func() {
		defer close(trigger)
		if _, err := d.Insert(testObj(9)); err != nil { // seq 10: the next trigger
			t.Errorf("Insert: %v", err)
		}
	}()
	if returnsWithin(trigger, 50*time.Millisecond) {
		t.Fatal("the next trigger did not wait for the checkpoint in flight")
	}
	release <- struct{}{}
	<-trigger
	if _, err := os.Stat(checkpointPath(dir, 5)); err != nil {
		t.Fatalf("checkpoint 5 did not land: %v", err)
	}

	<-started // the checkpoint at seq 10, held
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		if err := d.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if returnsWithin(closed, 50*time.Millisecond) {
		t.Fatal("Close did not wait for the checkpoint in flight")
	}
	release <- struct{}{}
	<-closed
	core.DisarmAllFailpoints()
	if got, want := dirNames(t, dir), []string{"checkpoint-000000000000000a.ckpt", "wal-000000000000000b.log"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after Close: dir = %v, want %v", got, want)
	}

	twin := t.TempDir()
	d2 := mustOpen(t, twin)
	for i := 0; i < 10; i++ {
		mustInsert(t, d2, i)
	}
	if err := d2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d2.Close()
	var landed [2][]byte
	for i, in := range []string{dir, twin} {
		p := checkpointPath(in, 10) // both indexes are closed: nothing maps it
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		landed[i] = b
	}
	if !bytes.Equal(landed[0], landed[1]) {
		t.Fatalf("background checkpoint (%d bytes) differs from the synchronous one (%d bytes)", len(landed[0]), len(landed[1]))
	}
}

// TestBackgroundCheckpointErrorDeferred: a background checkpoint that fails —
// here by a panic, which must not take the process down — is reported,
// wrapped in ErrCheckpoint and carrying the *core.PanicError, by whichever
// call next waits for it: the next trigger (whose insert stays applied and
// logged), Checkpoint, or Close.
func TestBackgroundCheckpointErrorDeferred(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, WithAutoCheckpoint(3))
	t.Cleanup(func() { d.Close() })
	// Every other checkpoint dies mid-write, counted in the order they start:
	// one is in flight at a time, so the count needs no lock.
	hits := 0
	core.ArmFailpoint(FPCheckpointWrite, func() {
		if hits++; hits%2 == 1 {
			panic("disk gone")
		}
	})
	t.Cleanup(core.DisarmAllFailpoints)
	deferred := func(what string, err error) {
		t.Helper()
		var pe *core.PanicError
		if !errors.Is(err, ErrCheckpoint) || !errors.As(err, &pe) || pe.Val != "disk gone" {
			t.Fatalf("%s reported %v, want ErrCheckpoint wrapping the writer's *core.PanicError", what, err)
		}
	}

	for i := 0; i < 5; i++ { // the 3rd insert starts the checkpoint that fails
		mustInsert(t, d, i)
	}
	h, err := d.Insert(testObj(5)) // the 6th collects it and starts the next
	deferred("the next trigger", err)
	if h != 5 || d.Len() != 6 || d.Seq() != 6 {
		t.Fatalf("the reporting insert: handle %d, Len %d, Seq %d; want 5, 6, 6", h, d.Len(), d.Seq())
	}

	for i := 6; i < 9; i++ { // the 9th insert starts a checkpoint that fails
		mustInsert(t, d, i)
	}
	deferred("Checkpoint", d.Checkpoint()) // its own, the 4th, lands
	if _, err := os.Stat(checkpointPath(dir, 9)); err != nil {
		t.Fatalf("Checkpoint's own checkpoint did not land: %v", err)
	}

	for i := 9; i < 12; i++ { // the 12th insert starts the 5th, which fails
		mustInsert(t, d, i)
	}
	deferred("Close", d.Close())
	core.DisarmAllFailpoints()

	d2 := mustOpen(t, dir)
	defer d2.Close()
	if d2.Len() != 12 || d2.Seq() != 12 {
		t.Fatalf("reopened: Len %d Seq %d, want 12, 12", d2.Len(), d2.Seq())
	}
	if litter, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(litter) != 0 {
		t.Fatalf("recovery left litter %v", litter)
	}
}

func TestSyncPolicyString(t *testing.T) {
	for p, want := range map[SyncPolicy]string{
		SyncEveryOp: "every-op", SyncInterval: "interval", SyncNone: "none", SyncPolicy(9): "SyncPolicy(9)",
	} {
		if got := p.String(); got != want {
			t.Errorf("SyncPolicy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	sort.Strings(names)
	return names
}

// TestFailedBucketBuildLeavesDurabilityWorking: replay and carries gather
// columns without indexing them, so a bucket whose first build panics fails
// the reads that reach it — every one of them — while inserts, deletes, a
// checkpoint and the reopen from it carry on; the reopened store indexes the
// same entries afresh and answers for all of them.
func TestFailedBucketBuildLeavesDurabilityWorking(t *testing.T) {
	defer core.DisarmAllFailpoints()
	dir := t.TempDir()
	d := mustOpen(t, dir, WithSyncPolicy(SyncNone))
	for i := 0; i < 1024; i++ { // 16 carries: one unbuilt bucket
		mustInsert(t, d, i)
	}
	all := geom.NewRect([]float64{-1, -1}, []float64{2, 2})
	ws := []dataset.Keyword{0, 1}
	core.ArmFailpoint(core.FPDynamicBuild, func() { panic("build dies") })
	_, _, first := collectHandles(d, all, ws)
	core.DisarmAllFailpoints()
	var pe *core.PanicError
	if !errors.As(first, &pe) {
		t.Fatalf("first read returned %v, want the build's *PanicError", first)
	}
	if _, _, err := collectHandles(d, all, ws); err != first {
		t.Fatalf("second read returned %v, want the first read's error", err)
	}

	if ok, err := d.Delete(5); !ok || err != nil {
		t.Fatalf("Delete: ok=%v err=%v", ok, err)
	}
	for i := 1024; i < 1040; i++ {
		mustInsert(t, d, i)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint over a failed bucket: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = mustOpen(t, dir, WithSyncPolicy(SyncNone))
	defer d.Close()
	var want []int64
	for h := int64(0); h < 1040; h++ {
		if h != 5 {
			want = append(want, h)
		}
	}
	if got := liveHandles(t, d); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened store holds %d live handles, want %d", len(got), len(want))
	}
}
