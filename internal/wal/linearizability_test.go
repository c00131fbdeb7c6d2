package wal

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kwsc/internal/core"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/invidx"
)

// Linearizability-style invariant harness (run under -race via `make race`
// and `make check`): randomized concurrent histories — one writer applying a
// seeded insert/delete workload, a checkpointer, and several readers pinning
// snapshots — where every pinned query must answer exactly as an
// inverted-index baseline replayed to the query's observed sequence number.
//
// Why this is the right check: writers are serialized, so the WAL order is
// the program order of the single writer, and a snapshot at seq S claims to
// be exactly the acked prefix ops[:S]. The writer publishes its history
// through an atomic counter (entry i is written before the counter reaches
// i+1), so a reader holding seq S can reconstruct the ground truth for S and
// compare. Repeatability is checked by re-running queries on the same pinned
// view, and the crash variants arm each durability failpoint mid-history to
// prove the guarantees hold while a mutator dies with readers in flight.

// linHistory is the writer's published op history. ops[i] describes the
// mutation that was assigned WAL seq i+1; len.Load() is the acked count, and
// entries below it are immutable once published.
type linHistory struct {
	ops []crashOp
	len atomic.Int64
}

// waitFor blocks (spinning politely) until the history covers seq.
func (h *linHistory) waitFor(seq uint64) bool {
	for i := 0; i < 1_000_000; i++ {
		if uint64(h.len.Load()) >= seq {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// linWriter applies ops in order, publishing each acked op into hist.
// Returns the acked count; on a crashPanic, or an op reporting one a
// background checkpoint recovered (that op is applied and logged, so it is
// published too), it records the crash and stops. Errors are reported with
// t.Errorf (goroutine-safe), never Fatalf.
func linWriter(t *testing.T, d *Durable, ops []crashOp, hist *linHistory, stop *atomic.Bool) (acked int, crashed bool) {
	handles := map[int]int64{}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashPanic); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	for i, op := range ops {
		if stop.Load() {
			return acked, false
		}
		var err error
		if op.del {
			var ok bool
			if ok, err = d.Delete(handles[op.target]); err == nil && !ok {
				t.Errorf("op %d: Delete(%d) found nothing live", i, handles[op.target])
				return acked, false
			}
		} else {
			handles[i], err = d.Insert(op.obj)
		}
		if err != nil && !isCrash(err) {
			t.Errorf("op %d: %v", i, err)
			return acked, false
		}
		acked++
		hist.ops[acked-1] = op
		hist.len.Store(int64(acked))
		if err != nil {
			return acked, true
		}
	}
	return acked, false
}

// linVerifySnapshot checks one pinned view against the invidx baseline of
// the acked prefix at the view's seq: Len, a seeded sample of queries, and
// repeatability of each query on the same view. Returns false (with
// t.Errorf) on any divergence.
func linVerifySnapshot(t *testing.T, v *core.DynSnapshot, hist *linHistory, rng *rand.Rand) bool {
	seq := v.Seq()
	if !hist.waitFor(seq) {
		t.Errorf("history never covered pinned seq %d", seq)
		return false
	}
	live, _ := modelAfter(hist.ops, int(seq))
	if v.Len() != len(live) {
		t.Errorf("snapshot at seq %d: Len=%d, model has %d", seq, v.Len(), len(live))
		return false
	}
	handles := make([]int64, 0, len(live))
	for h := range live {
		handles = append(handles, h)
	}
	sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
	var baseline *invidx.Index
	if len(live) > 0 {
		objs := make([]dataset.Object, len(handles))
		for i, h := range handles {
			// Clone: dataset.New normalizes docs in place, and these slices
			// are shared with the history (and with concurrent readers
			// building their own baselines from the same ops).
			o := live[h]
			objs[i] = dataset.Object{
				Point: append(geom.Point(nil), o.Point...),
				Doc:   append([]dataset.Keyword(nil), o.Doc...),
			}
		}
		ds, err := dataset.New(objs)
		if err != nil {
			t.Errorf("baseline dataset at seq %d: %v", seq, err)
			return false
		}
		baseline = invidx.Build(ds)
	}
	rects := []*geom.Rect{
		geom.NewRect([]float64{-1, -1}, []float64{2, 2}),
		geom.NewRect([]float64{0, 0}, []float64{0.5, 0.5}),
		geom.NewRect([]float64{0.3, 0.1}, []float64{0.9, 1}),
	}
	for trial := 0; trial < 4; trial++ {
		a := rng.Intn(7)
		b := a + 1 + rng.Intn(7-a)
		ws := []dataset.Keyword{dataset.Keyword(a), dataset.Keyword(b)}
		q := rects[rng.Intn(len(rects))]
		got, _, err := collectHandles(v, q, ws)
		if err != nil {
			t.Errorf("snapshot Collect at seq %d: %v", seq, err)
			return false
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		var want []int64
		if baseline != nil {
			for _, id := range baseline.KeywordsOnly(q, ws) {
				want = append(want, handles[id])
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("snapshot at seq %d, ws %v: got %v, baseline %v", seq, ws, got, want)
			return false
		}
		// Repeatability: the same pinned view must answer identically even
		// though the writer kept mutating after the first run.
		again, _, err := collectHandles(v, q, ws)
		if err != nil {
			t.Errorf("snapshot re-Collect at seq %d: %v", seq, err)
			return false
		}
		sort.Slice(again, func(i, j int) bool { return again[i] < again[j] })
		if fmt.Sprint(again) != fmt.Sprint(got) {
			t.Errorf("pinned view at seq %d not repeatable: %v then %v", seq, got, again)
			return false
		}
	}
	return true
}

// runConcurrentHistory drives one full concurrent history against d:
// 1 writer, 1 checkpointer, nReaders verifying readers. Returns the number
// of acked ops and whether the writer or the checkpointer hit an armed crash
// failpoint.
func runConcurrentHistory(t *testing.T, d *Durable, ops []crashOp, nReaders int, seed int64) (acked int, crashed bool) {
	t.Helper()
	hist := &linHistory{ops: make([]crashOp, len(ops))}
	var stop atomic.Bool // set on crash or writer completion
	var wg sync.WaitGroup
	verified := new(atomic.Int64)

	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed<<8 + int64(r)))
			for !stop.Load() {
				if linVerifySnapshot(t, d.SnapshotNow(), hist, rng) {
					verified.Add(1)
				} else {
					return
				}
			}
		}(r)
	}

	var ckptCrashed atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			time.Sleep(2 * time.Millisecond)
			switch err := d.Checkpoint(); {
			case isCrash(err):
				ckptCrashed.Store(true)
				stop.Store(true)
				return
			case err != nil && err != ErrClosed:
				t.Errorf("concurrent checkpoint: %v", err)
				return
			}
		}
	}()

	acked, crashed = linWriter(t, d, ops, hist, &stop)
	stop.Store(true)
	wg.Wait()
	crashed = crashed || ckptCrashed.Load()
	if !crashed {
		// Let every reader finish at least one verification even on short
		// histories (they all stop once the flag is up).
		if verified.Load() == 0 {
			rng := rand.New(rand.NewSource(seed))
			linVerifySnapshot(t, d.SnapshotNow(), hist, rng)
		}
	}
	return acked, crashed
}

// TestLinearizableConcurrentHistory is the clean-run harness: randomized
// concurrent histories under both fsync policies, with pinned mid-history
// views re-checked after the full history for byte-identical answers.
func TestLinearizableConcurrentHistory(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Option
		ops  int
	}{
		{"fsync=none", WithSyncPolicy(SyncNone), 400},
		{"fsync=every-op", WithSyncPolicy(SyncEveryOp), 150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := mustOpen(t, dir, tc.opt)
			defer d.Close()
			ops := crashWorkload(31, tc.ops)
			acked, crashed := runConcurrentHistory(t, d, ops, 4, 1009)
			if crashed || acked != len(ops) {
				t.Fatalf("clean run: acked=%d crashed=%v", acked, crashed)
			}
			// Final state equals the full-history model.
			live, _ := modelAfter(ops, len(ops))
			verifyAgainstBaseline(t, d, live)
			// And a snapshot pinned now stays byte-identical across churn.
			v := d.SnapshotNow()
			all := geom.NewRect([]float64{-1, -1}, []float64{2, 2})
			ws := []dataset.Keyword{0, 1}
			before, _, err := collectHandles(v, all, ws)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 80; i++ {
				mustInsert(t, d, 9000+i)
			}
			after, _, err := collectHandles(v, all, ws)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(before) != fmt.Sprint(after) {
				t.Fatalf("pinned view drifted under churn: %v then %v", before, after)
			}
			if v.Seq() != uint64(acked) {
				t.Fatalf("pinned seq = %d, want %d", v.Seq(), acked)
			}
		})
	}
}

// TestLinearizableConcurrentCrash arms a crash at each write-path and
// checkpoint-path failpoint while the concurrent history runs, keeps readers
// verifying through the crash, then recovers the directory and proves the
// acked prefix survived exactly. The auto variants checkpoint every 16 ops
// as well, so a crashed writer may be an automatic checkpoint's, in the
// background while the writer goes on.
func TestLinearizableConcurrentCrash(t *testing.T) {
	for _, tc := range []struct {
		site string
		nth  int
		auto int
	}{
		{FPAppend, 23, 0},
		{FPAppend, 61, 0},
		{FPSync, 17, 0},
		{FPSync, 49, 0},
		{FPCheckpointWrite, 1, 0},
		{FPCheckpointRename, 1, 0},
		{FPCheckpointWrite, 1, 16},
		{FPCheckpointRename, 1, 16},
	} {
		name := fmt.Sprintf("%s-%d", tc.site, tc.nth)
		if tc.auto > 0 {
			name += "-auto"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d := mustOpen(t, dir, WithAutoCheckpoint(tc.auto)) // SyncEveryOp default
			ops := crashWorkload(int64(tc.nth)*13, 120)
			armCrash(t, tc.site, tc.nth)
			acked, crashed := runConcurrentHistory(t, d, ops, 3, int64(tc.nth))
			if !crashed {
				t.Skipf("failpoint %s hit fewer than %d times", tc.site, tc.nth)
			}
			settle(d)
			// Readers saw only published (acked) states throughout; now the
			// reopened store must hold the acked prefix, at most one
			// in-flight op beyond it.
			crashAndRecover(t, dir, ops, acked)
		})
	}
}

// TestLinearizableReplayCrash completes a concurrent history, then crashes
// recovery itself mid-replay (FPReplay): a second recovery must start from
// scratch and still reconstruct the full acked history.
func TestLinearizableReplayCrash(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	ops := crashWorkload(271, 90)
	acked, crashed := runConcurrentHistory(t, d, ops, 3, 4211)
	if crashed || acked != len(ops) {
		t.Fatalf("clean run: acked=%d crashed=%v", acked, crashed)
	}
	// The concurrent run's checkpointer may have superseded almost the whole
	// log; append a checkpoint-free tail of inserts so recovery is guaranteed
	// to replay enough records for the failpoint to fire.
	for i := 0; i < 40; i++ {
		op := crashOp{obj: testObj(5000 + i)}
		if _, err := d.Insert(op.obj); err != nil {
			t.Fatalf("tail insert %d: %v", i, err)
		}
		ops = append(ops, op)
		acked++
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	armCrash(t, FPReplay, 30)
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(crashPanic); !ok {
					panic(r)
				}
			}
		}()
		Open(dir, 2, 2)
		t.Fatal("replay failpoint never fired")
	}()
	crashAndRecover(t, dir, ops, acked)
}

// TestReadersNotBlockedBySlowFsync pins the non-blocking-readers contract
// directly: with a writer stalled inside the pre-fsync failpoint (holding
// the write lock), queries, snapshots, and metrics accessors must all
// complete promptly.
func TestReadersNotBlockedBySlowFsync(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir) // SyncEveryOp
	for i := 0; i < 40; i++ {
		mustInsert(t, d, i)
	}
	release := make(chan struct{})
	stalled := make(chan struct{})
	core.ArmFailpoint(FPSync, func() {
		close(stalled)
		<-release
	})
	t.Cleanup(core.DisarmAllFailpoints)
	go d.Insert(testObj(999)) // parks inside the "fsync"
	<-stalled

	done := make(chan struct{})
	go func() {
		defer close(done)
		all := geom.NewRect([]float64{-1, -1}, []float64{2, 2})
		if _, _, err := collectHandles(d, all, []dataset.Keyword{0, 1}); err != nil {
			t.Errorf("Collect during stalled fsync: %v", err)
		}
		v := d.SnapshotNow()
		if _, _, err := collectHandles(v, all, []dataset.Keyword{0, 1}); err != nil {
			t.Errorf("snapshot Collect during stalled fsync: %v", err)
		}
		_ = d.Len()
		_ = d.Seq()
		_ = d.NumBuckets()
		_ = d.Tombstones()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("readers blocked behind a stalled fsync")
	}
	close(release)
	core.DisarmAllFailpoints()
}

// TestConcurrentWritersFinalState hammers one Durable from several writer
// goroutines (contending on the write lock) with readers in flight, then
// checks the final state against the set of acknowledged operations —
// inserts are identified by their returned handles, so the final live set is
// order-independent — and that it survives a reopen.
func TestConcurrentWritersFinalState(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, WithSyncPolicy(SyncNone))
	const writers, perWriter = 4, 60

	var mu sync.Mutex
	live := map[int64]dataset.Object{} // acked inserts minus acked deletes
	var wg sync.WaitGroup
	var stop atomic.Bool
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			all := geom.NewRect([]float64{-1, -1}, []float64{2, 2})
			for !stop.Load() {
				v := d.SnapshotNow()
				if _, _, err := collectHandles(v, all, []dataset.Keyword{0, 1}); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			var mine []int64
			for i := 0; i < perWriter; i++ {
				if len(mine) > 8 && rng.Intn(3) == 0 {
					h := mine[0]
					mine = mine[1:]
					ok, err := d.Delete(h)
					if err != nil || !ok {
						t.Errorf("writer %d: Delete(%d)=%v,%v", w, h, ok, err)
						return
					}
					mu.Lock()
					delete(live, h)
					mu.Unlock()
					continue
				}
				obj := testObj(w*1000 + i)
				h, err := d.Insert(obj)
				if err != nil {
					t.Errorf("writer %d: Insert: %v", w, err)
					return
				}
				mine = append(mine, h)
				mu.Lock()
				live[h] = obj
				mu.Unlock()
			}
		}(w)
	}
	ww.Wait()
	stop.Store(true)
	wg.Wait()
	verifyAgainstBaseline(t, d, live)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir)
	defer d2.Close()
	verifyAgainstBaseline(t, d2, live)
}
