package kwsc_test

import (
	"errors"
	"sort"
	"testing"

	"kwsc"
)

// collectHandles answers q and ws with no options, returning the handles:
// the one query surface the dynamic indexes and DynSnapshot share.
func collectHandles(ix interface {
	Query(*kwsc.Rect, []kwsc.Keyword, kwsc.QueryOpts, func(int64, *kwsc.Object)) (kwsc.QueryStats, error)
}, q *kwsc.Rect, ws []kwsc.Keyword) ([]int64, kwsc.QueryStats, error) {
	var out []int64
	st, err := ix.Query(q, ws, kwsc.QueryOpts{}, func(h int64, _ *kwsc.Object) { out = append(out, h) })
	return out, st, err
}

func TestOpenDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := kwsc.OpenDurable(dir, 2, 2,
		kwsc.WithFsyncPolicy(kwsc.FsyncNone),
		kwsc.WithAutoCheckpoint(8),
		kwsc.WithDurableBufferCap(4))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	objs := []kwsc.Object{
		{Point: kwsc.Point{0.1, 0.2}, Doc: []kwsc.Keyword{1, 2}},
		{Point: kwsc.Point{0.5, 0.6}, Doc: []kwsc.Keyword{1, 2, 3}},
		{Point: kwsc.Point{0.9, 0.9}, Doc: []kwsc.Keyword{2, 3}},
		{Point: kwsc.Point{0.3, 0.8}, Doc: []kwsc.Keyword{1, 2}},
	}
	var handles []int64
	for _, o := range objs {
		h, err := d.Insert(o)
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		handles = append(handles, h)
	}
	if ok, err := d.Delete(handles[3]); err != nil || !ok {
		t.Fatalf("Delete: %v %v", ok, err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := d.Insert(objs[0]); !errors.Is(err, kwsc.ErrIndexClosed) {
		t.Fatalf("Insert after Close: %v, want ErrIndexClosed", err)
	}

	d2, err := kwsc.OpenDurable(dir, 2, 2)
	if err != nil {
		t.Fatalf("recovery OpenDurable: %v", err)
	}
	defer d2.Close()
	if d2.Len() != 3 {
		t.Fatalf("recovered Len = %d, want 3", d2.Len())
	}
	got, _, err := collectHandles(d2, kwsc.NewRect([]float64{0, 0}, []float64{1, 1}), []kwsc.Keyword{1, 2})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []int64{handles[0], handles[1]} // handle 3 deleted, handle 2 lacks keyword 1
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("recovered query = %v, want %v", got, want)
	}
	// Dimension mismatch must be refused, not silently re-indexed.
	if _, err := kwsc.OpenDurable(dir, 3, 2); err == nil {
		t.Fatal("OpenDurable accepted a dim mismatch")
	}
}

// TestDurableSnapshotPinned pins a snapshot through the facade and requires
// it to answer identically after interleaved mutations moved the head on.
func TestDurableSnapshotPinned(t *testing.T) {
	dir := t.TempDir()
	d, err := kwsc.OpenDurable(dir, 2, 2,
		kwsc.WithFsyncPolicy(kwsc.FsyncNone), kwsc.WithDurableBufferCap(4))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer d.Close()
	for i := 0; i < 12; i++ {
		if _, err := d.Insert(kwsc.Object{
			Point: kwsc.Point{float64(i) / 12, 0.5},
			Doc:   []kwsc.Keyword{1, kwsc.Keyword(2 + i%3)},
		}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	var s *kwsc.DynSnapshot = d.SnapshotNow()
	if s.Seq() != d.Seq() {
		t.Fatalf("snapshot seq %d, head %d", s.Seq(), d.Seq())
	}
	all := kwsc.NewRect([]float64{0, 0}, []float64{1, 1})
	ws := []kwsc.Keyword{1, 2}
	before, _, err := collectHandles(s, all, ws)
	if err != nil {
		t.Fatalf("snapshot Collect: %v", err)
	}
	sort.Slice(before, func(i, j int) bool { return before[i] < before[j] })

	// Mutate past the pin: delete every object the pinned query reported and
	// insert replacements, forcing carries through the pinned buckets.
	for _, h := range before {
		if ok, err := d.Delete(h); err != nil || !ok {
			t.Fatalf("Delete(%d): %v %v", h, ok, err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := d.Insert(kwsc.Object{
			Point: kwsc.Point{0.5, float64(i) / 20},
			Doc:   []kwsc.Keyword{1, 2},
		}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}

	after, _, err := collectHandles(s, all, ws)
	if err != nil {
		t.Fatalf("pinned Collect after churn: %v", err)
	}
	sort.Slice(after, func(i, j int) bool { return after[i] < after[j] })
	if len(before) == 0 || len(before) != len(after) {
		t.Fatalf("pinned view changed size: %v then %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("pinned view changed: %v then %v", before, after)
		}
	}
	// The live index, by contrast, sees the churn.
	liveNow, _, err := collectHandles(d, all, ws)
	if err != nil {
		t.Fatalf("live Collect: %v", err)
	}
	if len(liveNow) == len(before) {
		t.Fatalf("churn did not change the live answer (%d handles)", len(liveNow))
	}
	if d.Seq() <= s.Seq() {
		t.Fatalf("head seq %d did not advance past pin %d", d.Seq(), s.Seq())
	}
}
