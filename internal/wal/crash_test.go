package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"kwsc/internal/core"
	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/invidx"
)

// Crash-injection suite: arm a panic at each durability failpoint, run a
// randomized insert/delete workload until the "process" dies mid-operation,
// abandon the instance without closing it (open file handles and all), reopen
// the directory, and prove:
//
//  1. recovery succeeds,
//  2. every operation acknowledged before the crash survived (per-op fsync),
//  3. the recovered state is byte-for-byte the prefix ops[:LastSeq] of the
//     submitted history — verified by replaying that prefix into an
//     inverted-index baseline and comparing query answers.
//
// Run with `make crash` (go test -race -run Crash ./internal/wal/).

// crashPanic is the sentinel thrown by armed failpoints; anything else
// re-panics so real bugs still fail loudly.
type crashPanic struct{ site string }

// armCrash panics at the nth hit of the failpoint site.
func armCrash(t *testing.T, site string, nth int) {
	t.Helper()
	hits := 0
	core.ArmFailpoint(site, func() {
		hits++
		if hits == nth {
			panic(crashPanic{site})
		}
	})
	t.Cleanup(core.DisarmAllFailpoints)
}

// isCrash reports whether err carries a crashPanic recovered by a
// checkpoint's background writer: the writer runs on a goroutine of its own,
// so a crash armed there comes back as a *core.PanicError (wrapped in
// ErrCheckpoint when a later trigger collects it) instead of unwinding the
// caller. The process "dies" at the call that reports it.
func isCrash(err error) bool {
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		return false
	}
	_, ok := pe.Val.(crashPanic)
	return ok
}

// settle waits for d's background checkpoint writer, if one is in flight: a
// process that crashes takes its writer down with it, so recovery must not
// race one still landing files in the directory.
func settle(d *Durable) {
	d.mu.Lock()
	d.awaitCheckpointLocked()
	d.mu.Unlock()
}

// crashOp is one step of the workload. For deletes, target is the index (in
// the op sequence) of the insert whose handle is deleted.
type crashOp struct {
	del    bool
	obj    dataset.Object
	target int
}

// crashWorkload builds a deterministic mixed workload: ~1/4 deletes, each
// targeting an insert that is still live at that point of the sequence.
func crashWorkload(seed int64, n int) []crashOp {
	r := rand.New(rand.NewSource(seed))
	var ops []crashOp
	var liveInserts []int // op indices of not-yet-deleted inserts
	for len(ops) < n {
		if len(liveInserts) > 0 && r.Intn(4) == 0 {
			j := r.Intn(len(liveInserts))
			ops = append(ops, crashOp{del: true, target: liveInserts[j]})
			liveInserts = append(liveInserts[:j], liveInserts[j+1:]...)
		} else {
			perm := r.Perm(8)
			doc := make([]dataset.Keyword, 2+r.Intn(3))
			for i := range doc {
				doc[i] = dataset.Keyword(perm[i])
			}
			liveInserts = append(liveInserts, len(ops))
			ops = append(ops, crashOp{
				obj: dataset.Object{Point: geom.Point{r.Float64(), r.Float64()}, Doc: doc},
			})
		}
	}
	return ops
}

// runUntilCrash applies ops in order, returning how many were acknowledged
// before a crashPanic unwound the stack, or before an op reported one a
// background checkpoint recovered — that op is applied and logged, so it
// counts as acknowledged. Other errors and foreign panics fail the test.
func runUntilCrash(t *testing.T, d *Durable, ops []crashOp, handles map[int]int64) (acked int, crashed bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashPanic); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	for i, op := range ops {
		var err error
		if op.del {
			var ok bool
			if ok, err = d.Delete(handles[op.target]); err == nil && !ok {
				t.Fatalf("op %d: Delete(%d) found nothing live", i, handles[op.target])
			}
		} else {
			handles[i], err = d.Insert(op.obj)
		}
		switch {
		case isCrash(err):
			return acked + 1, true
		case err != nil:
			t.Fatalf("op %d: %v", i, err)
		}
		acked++
	}
	return acked, false
}

// modelAfter replays ops[:n] into a handle→object map, the ground truth for
// the recovered index. Handles are assigned the way DynamicORPKW assigns
// them: sequentially, one per insert.
func modelAfter(ops []crashOp, n int) (live map[int64]dataset.Object, nextHandle int64) {
	live = map[int64]dataset.Object{}
	byOp := map[int]int64{}
	for i := 0; i < n; i++ {
		if ops[i].del {
			delete(live, byOp[ops[i].target])
		} else {
			byOp[i] = nextHandle
			live[nextHandle] = ops[i].obj
			nextHandle++
		}
	}
	return live, nextHandle
}

// queryable is anything that answers queries and Len over handles — a live
// Durable or a pinned DynSnapshot view.
type queryable interface {
	handleQuerier
	Len() int
}

// verifyAgainstBaseline checks the recovered index against an inverted-index
// baseline built from the model: for a spread of (rectangle, keyword-pair)
// queries, the handle sets must match exactly.
func verifyAgainstBaseline(t *testing.T, d queryable, live map[int64]dataset.Object) {
	t.Helper()
	if d.Len() != len(live) {
		t.Fatalf("recovered Len = %d, model has %d live objects", d.Len(), len(live))
	}
	if len(live) == 0 {
		return
	}
	handles := make([]int64, 0, len(live))
	for h := range live {
		handles = append(handles, h)
	}
	sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
	objs := make([]dataset.Object, len(handles))
	for i, h := range handles {
		o := live[h]
		objs[i] = dataset.Object{
			Point: append(geom.Point(nil), o.Point...),
			Doc:   append([]dataset.Keyword(nil), o.Doc...),
		}
	}
	ds, err := dataset.New(objs)
	if err != nil {
		t.Fatalf("baseline dataset: %v", err)
	}
	baseline := invidx.Build(ds)

	rects := []*geom.Rect{
		geom.NewRect([]float64{-1, -1}, []float64{2, 2}),     // everything
		geom.NewRect([]float64{0, 0}, []float64{0.5, 0.5}),   // quadrant
		geom.NewRect([]float64{0.3, 0.1}, []float64{0.9, 1}), // off-center
		geom.NewRect([]float64{2, 2}, []float64{3, 3}),       // empty
	}
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			ws := []dataset.Keyword{dataset.Keyword(a), dataset.Keyword(b)}
			for ri, q := range rects {
				got, _, err := collectHandles(d, q, ws)
				if err != nil {
					t.Fatalf("Collect(%v): %v", ws, err)
				}
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				var want []int64
				for _, id := range baseline.KeywordsOnly(q, ws) {
					want = append(want, handles[id])
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("query (rect %d, ws %v): recovered %v, baseline %v", ri, ws, got, want)
				}
			}
		}
	}
}

// crashAndRecover reopens the directory after a simulated crash and checks
// the recovered history is an acknowledged-inclusive prefix of ops.
func crashAndRecover(t *testing.T, dir string, ops []crashOp, acked int) *Durable {
	t.Helper()
	core.DisarmAllFailpoints()
	d2, err := Open(dir, 2, 2)
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	t.Cleanup(func() { d2.Close() })
	survived := d2.Seq()
	// Durability: under SyncEveryOp nothing acknowledged may be lost. The
	// in-flight (unacknowledged) op may or may not have survived — both are
	// legal — but nothing past it can exist.
	if survived < uint64(acked) {
		t.Fatalf("lost acknowledged ops: %d acked, only %d recovered", acked, survived)
	}
	if survived > uint64(acked)+1 {
		t.Fatalf("recovered %d ops, but only %d were ever submitted past the ack point", survived, acked+1)
	}
	live, _ := modelAfter(ops, int(survived))
	verifyAgainstBaseline(t, d2, live)
	return d2
}

// recoverTorn is crashAndRecover for a crash on the write path, where a crash
// at FPAppend leaves a frame prefix: recovery must truncate exactly that one
// torn tail, and none after a crash at any other site.
func recoverTorn(t *testing.T, site, dir string, ops []crashOp, acked int) *Durable {
	t.Helper()
	before := walTornTruncations.Load()
	d2 := crashAndRecover(t, dir, ops, acked)
	want := int64(0)
	if site == FPAppend {
		want = 1
	}
	if got := walTornTruncations.Load() - before; got != want {
		t.Fatalf("recovery after a crash at %s truncated %d torn tails, want %d", site, got, want)
	}
	return d2
}

// crashSites: every durability failpoint that fires on the write path, with
// the op index at which to detonate (1-based hit count of the site).
func TestCrashDuringAppend(t *testing.T) { testCrashAt(t, FPAppend) }
func TestCrashBeforeFsync(t *testing.T)  { testCrashAt(t, FPSync) }

func testCrashAt(t *testing.T, site string) {
	for _, nth := range []int{1, 7, 40} {
		t.Run(fmt.Sprintf("hit-%d", nth), func(t *testing.T) {
			dir := t.TempDir()
			ops := crashWorkload(int64(nth)*17, 60)
			d := mustOpen(t, dir) // SyncEveryOp default
			armCrash(t, site, nth)
			handles := map[int]int64{}
			acked, crashed := runUntilCrash(t, d, ops, handles)
			if !crashed {
				t.Fatalf("failpoint %s never fired (%d ops acked)", site, acked)
			}
			if acked != nth-1 {
				t.Fatalf("acked %d ops before crash at hit %d", acked, nth)
			}
			d2 := recoverTorn(t, site, dir, ops, acked)
			// The store must remain writable after recovery.
			if _, err := d2.Insert(ops[0].obj); err != nil {
				t.Fatalf("post-recovery insert: %v", err)
			}
		})
	}
}

func TestCrashMidCheckpointWrite(t *testing.T)     { testCrashDuringCheckpoint(t, FPCheckpointWrite) }
func TestCrashBeforeCheckpointRename(t *testing.T) { testCrashDuringCheckpoint(t, FPCheckpointRename) }

func testCrashDuringCheckpoint(t *testing.T, site string) {
	dir := t.TempDir()
	ops := crashWorkload(99, 50)
	d := mustOpen(t, dir)
	handles := map[int]int64{}
	if acked, crashed := runUntilCrash(t, d, ops, handles); crashed || acked != len(ops) {
		t.Fatalf("workload: acked=%d crashed=%v", acked, crashed)
	}
	armCrash(t, site, 1)
	if err := d.Checkpoint(); !isCrash(err) {
		t.Fatalf("checkpoint failpoint %s never fired: %v", site, err)
	}
	// A crashed checkpoint must lose nothing: the full log is still there.
	crashAndRecover(t, dir, ops, len(ops))
}

func TestCrashDuringReplay(t *testing.T) {
	dir := t.TempDir()
	ops := crashWorkload(7, 40)
	d := mustOpen(t, dir)
	handles := map[int]int64{}
	if acked, crashed := runUntilCrash(t, d, ops, handles); crashed || acked != len(ops) {
		t.Fatalf("workload: acked=%d crashed=%v", acked, crashed)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash in the middle of recovery replay; recovery only reads the log,
	// so a second recovery must start from scratch and succeed.
	armCrash(t, FPReplay, 20)
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
	crashAndRecover(t, dir, ops, len(ops))
}

// TestCrashStressManySites detonates at an arbitrary op for every write-path
// site in sequence over fresh directories, as a sweep; kept deterministic so
// failures reproduce.
func TestCrashStressManySites(t *testing.T) {
	for _, site := range []string{FPAppend, FPSync} {
		for nth := 1; nth <= 25; nth += 3 {
			t.Run(fmt.Sprintf("%s-%d", site, nth), func(t *testing.T) {
				dir := t.TempDir()
				ops := crashWorkload(int64(nth)*1031, 30)
				d := mustOpen(t, dir)
				armCrash(t, site, nth)
				handles := map[int]int64{}
				acked, crashed := runUntilCrash(t, d, ops, handles)
				if !crashed {
					t.Skipf("site %s hit fewer than %d times", site, nth)
				}
				recoverTorn(t, site, dir, ops, acked)
			})
		}
	}
}

// TestCrashCheckpointLeavesLitterRecoveryClears crashes a checkpoint at each
// of its sites: the landing leaves its tmp file (cleanup is not deferred, as
// a killed process cleans nothing up) and no checkpoint under the final
// name, and the next recovery deletes the litter.
func TestCrashCheckpointLeavesLitterRecoveryClears(t *testing.T) {
	for _, site := range []string{FPCheckpointWrite, FPCheckpointRename} {
		t.Run(site, func(t *testing.T) {
			dir := t.TempDir()
			d := mustOpen(t, dir)
			for i := 0; i < 5; i++ {
				mustInsert(t, d, i)
			}
			armCrash(t, site, 1)
			if err := d.Checkpoint(); !isCrash(err) {
				t.Fatalf("checkpoint failpoint %s never fired: %v", site, err)
			}
			core.DisarmAllFailpoints()
			litter, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
			landed, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
			if len(litter) != 1 || len(landed) != 0 {
				t.Fatalf("after the crash: tmp files %v, checkpoints %v; want one tmp file and no checkpoint", litter, landed)
			}
			d2 := mustOpen(t, dir)
			defer d2.Close()
			if d2.Seq() != 5 {
				t.Fatalf("recovered seq %d, want 5", d2.Seq())
			}
			if litter, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(litter) != 0 {
				t.Fatalf("recovery left litter %v", litter)
			}
		})
	}
}

// TestCrashInBackgroundCheckpoint crashes an automatic checkpoint's
// background writer at each of its sites while writes go on past its pin:
// the writer of the checkpoint at seq 8 waits at the site until seq 12 is
// acknowledged and dies there, and so does every writer after it. The
// trigger at seq 16 reports the crash and the process dies at that call;
// recovery must hold all 16 ops, those after the pin included, and clear the
// litter.
func TestCrashInBackgroundCheckpoint(t *testing.T) {
	for _, site := range []string{FPCheckpointWrite, FPCheckpointRename} {
		t.Run(site, func(t *testing.T) {
			dir := t.TempDir()
			ops := crashWorkload(5, 40)
			d := mustOpen(t, dir, WithAutoCheckpoint(8))
			core.ArmFailpoint(site, func() {
				for d.Seq() < 12 {
					time.Sleep(time.Millisecond)
				}
				panic(crashPanic{site})
			})
			t.Cleanup(core.DisarmAllFailpoints)
			acked, crashed := runUntilCrash(t, d, ops, map[int]int64{})
			if !crashed || acked != 16 {
				t.Fatalf("acked %d ops, crashed %v; want the trigger at seq 16 to report the crash", acked, crashed)
			}
			settle(d)
			if litter, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(litter) == 0 {
				t.Fatalf("the crashed writer left no litter (dir %v)", dirNames(t, dir))
			}
			if landed, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(landed) != 0 {
				t.Fatalf("a crashed checkpoint landed: %v", landed)
			}
			crashAndRecover(t, dir, ops, acked)
			if litter, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(litter) != 0 {
				t.Fatalf("recovery left litter %v", litter)
			}
		})
	}
}
