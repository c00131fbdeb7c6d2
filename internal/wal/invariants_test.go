package wal

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"kwsc/internal/core"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/obs"
)

// handleView maps every live handle to a rendering of its object by querying
// all keyword pairs over the full plane.
func handleView(t *testing.T, d *Durable) map[int64]string {
	t.Helper()
	all := geom.NewRect([]float64{-1, -1}, []float64{2, 2})
	view := map[int64]string{}
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			ws := []dataset.Keyword{dataset.Keyword(a), dataset.Keyword(b)}
			_, err := d.Query(all, ws, core.QueryOpts{}, func(h int64, obj *dataset.Object) {
				view[h] = fmt.Sprintf("%v|%v", obj.Point, obj.Doc)
			})
			if err != nil {
				t.Fatalf("Query(%v): %v", ws, err)
			}
		}
	}
	return view
}

// TestRecoveryInvariants pins the dynamic-index accessor contract across a
// recovery: Len, handle stability (same handle → same object), NextHandle
// monotonicity, and that the shared obs gauges move by exactly the recovered
// instance's state when it is restored.
func TestRecoveryInvariants(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	for i := 0; i < 40; i++ {
		mustInsert(t, d, i)
	}
	for _, h := range []int64{1, 5, 8, 13, 21, 34} {
		if ok, err := d.Delete(h); err != nil || !ok {
			t.Fatalf("Delete(%d): %v %v", h, ok, err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 50; i++ { // tail ops after the checkpoint
		mustInsert(t, d, i)
	}
	d.Delete(45)
	before := handleView(t, d)
	wantLen, wantSeq := d.Len(), d.Seq()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	liveG := obs.Default().Gauge("kwsc_dynamic_live_objects")
	tombG := obs.Default().Gauge("kwsc_dynamic_tombstones")
	live0, tomb0 := liveG.Load(), tombG.Load()

	d2 := mustOpen(t, dir)
	defer d2.Close()

	// Len is preserved exactly.
	if d2.Len() != wantLen {
		t.Fatalf("Len = %d, want %d", d2.Len(), wantLen)
	}
	if d2.Seq() != wantSeq {
		t.Fatalf("LastSeq = %d, want %d", d2.Seq(), wantSeq)
	}
	// Handle stability: every handle resolves to the object it named before
	// the restart, and no handle appeared or vanished.
	after := handleView(t, d2)
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("handle→object mapping changed across recovery:\n before %v\n after  %v", before, after)
	}
	// NextHandle: strictly above every live handle, so new inserts can
	// never collide with pre-crash handles.
	var handles []int64
	for h := range after {
		handles = append(handles, h)
	}
	sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
	nh := mustInsert(t, d2, 1234)
	if nh <= handles[len(handles)-1] {
		t.Fatalf("post-recovery insert reused handle %d (max live %d)", nh, handles[len(handles)-1])
	}
	if nh != 50 {
		t.Fatalf("post-recovery handle = %d, want 50 (50 inserts before crash)", nh)
	}
	d2.Delete(nh)

	// Gauge deltas: the restore added exactly this instance's live count and
	// tombstones to the fleet-total gauges (the insert/delete pair above
	// cancels in live and adds one tombstone).
	wantLiveDelta := int64(d2.Len())
	wantTombDelta := int64(d2.Tombstones())
	if got := liveG.Load() - live0; got != wantLiveDelta {
		t.Fatalf("kwsc_dynamic_live_objects moved by %d across recovery, want %d", got, wantLiveDelta)
	}
	if got := tombG.Load() - tomb0; got != wantTombDelta {
		t.Fatalf("kwsc_dynamic_tombstones moved by %d across recovery, want %d", got, wantTombDelta)
	}
	// Tombstone ceiling (the compaction contract) holds after recovery too.
	if 2*d2.Tombstones() > d2.Len() {
		t.Fatalf("tombstones %d exceed half of live %d after recovery", d2.Tombstones(), d2.Len())
	}
}
