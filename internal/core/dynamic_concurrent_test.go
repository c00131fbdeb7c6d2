package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/obs"
)

// Concurrency tests for the copy-on-write dynamic index: readers and
// snapshots must observe only fully published states while a writer churns,
// pinned views must answer identically forever, and the shared obs gauges
// must track the fleet's structural totals exactly even when several
// instances publish deltas concurrently. Run under -race (make race).

// churn applies n randomized ops (~1/4 deletes of still-live handles) to d.
// It is the single mutator of d; DynamicORPKW serializes mutators internally,
// so the test's writer goroutines never coordinate beyond this.
func churn(t *testing.T, d *DynamicORPKW, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var live []int64
	for i := 0; i < n; i++ {
		if len(live) > 0 && rng.Intn(4) == 0 {
			j := rng.Intn(len(live))
			ok, err := d.Delete(live[j])
			if err != nil || !ok {
				t.Errorf("op %d: Delete(%d) = %v, %v", i, live[j], ok, err)
				return
			}
			live = append(live[:j], live[j+1:]...)
		} else {
			h, err := d.Insert(randObj(rng))
			if err != nil {
				t.Errorf("op %d: Insert: %v", i, err)
				return
			}
			live = append(live, h)
		}
	}
}

// snapBrute answers a query by brute force over a snapshot's own Entries
// dump — the self-consistency oracle: whatever state a reader pinned, its
// queries must agree with its entry listing.
func snapBrute(s *DynSnapshot, q *geom.Rect, ws []dataset.Keyword) []int64 {
	handles, objs, err := s.Entries()
	if err != nil {
		panic(err)
	}
	var out []int64
	if objs != nil {
		for _, id := range objs.Filter(q, ws) {
			out = append(out, handles[id])
		}
	}
	return out
}

// TestDynamicConcurrentSnapshotConsistency runs lock-free readers against a
// churning writer. Every pinned snapshot must be internally consistent —
// Len matches its entry dump, Collect matches brute force over that dump,
// and a repeated query answers identically — and the seqs a reader observes
// must never go backwards.
func TestDynamicConcurrentSnapshotConsistency(t *testing.T) {
	d, err := NewDynamicORPKW(2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		churn(t, d, 42, 800)
	}()

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			lastSeq := uint64(0)
			for {
				select {
				case <-done:
					return
				default:
				}
				s := d.SnapshotNow()
				if s.Seq() < lastSeq {
					t.Errorf("reader %d: seq went backwards: %d after %d", r, s.Seq(), lastSeq)
					return
				}
				lastSeq = s.Seq()
				es, _, err := s.Entries()
				if err != nil {
					t.Errorf("reader %d: Entries: %v", r, err)
					return
				}
				if got := len(es); got != s.Len() {
					t.Errorf("reader %d: seq %d: Entries()=%d, Len()=%d", r, s.Seq(), got, s.Len())
					return
				}
				a := dataset.Keyword(rng.Intn(9))
				ws := []dataset.Keyword{a, a + 1}
				q := geom.NewRect([]float64{0, 0}, []float64{rng.Float64(), 1})
				got, _, err := collectHandles(s, q, ws)
				if err != nil {
					t.Errorf("reader %d: Collect: %v", r, err)
					return
				}
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				want := snapBrute(s, q, ws)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("reader %d: seq %d: Collect %v, entries say %v", r, s.Seq(), got, want)
					return
				}
				again, _, err := collectHandles(s, q, ws)
				if err != nil {
					t.Errorf("reader %d: repeat Collect: %v", r, err)
					return
				}
				sort.Slice(again, func(i, j int) bool { return again[i] < again[j] })
				if fmt.Sprint(got) != fmt.Sprint(again) {
					t.Errorf("reader %d: seq %d not repeatable: %v then %v", r, s.Seq(), got, again)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	<-done
}

// TestDynamicSnapshotPinnedAcrossChurn pins a view, records a query answer,
// applies enough churn to trigger carries and a compaction, and requires the
// pinned view to answer byte-identically while the head has moved on. The
// pin counts once in kwsc_dynamic_snapshot_pins_total. A query on the pinned
// view and one on a second index's current view each land one observation in
// the kwsc_dynamic_snapshot_staleness_ops histogram: 60 and 0 records behind
// their own heads.
func TestDynamicSnapshotPinnedAcrossChurn(t *testing.T) {
	d, err := NewDynamicORPKW(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var handles []int64
	for i := 0; i < 30; i++ {
		h, err := d.Insert(randObj(rng))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	pins := obs.Default().Counter("kwsc_dynamic_snapshot_pins_total")
	pins0 := pins.Load()
	s := d.SnapshotNow()
	if got := pins.Load() - pins0; got != 1 {
		t.Fatalf("a pin moved kwsc_dynamic_snapshot_pins_total by %d, want 1", got)
	}
	pinSeq := s.Seq()
	all := geom.NewRect([]float64{-1, -1}, []float64{2, 2})
	ws := []dataset.Keyword{2, 5}
	before, _, err := collectHandles(s, all, ws)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(before, func(i, j int) bool { return before[i] < before[j] })
	hb, ob, err := s.Entries()
	if err != nil {
		t.Fatal(err)
	}

	// Churn past the pin: deletes force tombstones and a compaction, inserts
	// force buffer carries that rebuild the bucket array the pin points into.
	for _, h := range handles[:20] {
		if ok, err := d.Delete(h); err != nil || !ok {
			t.Fatalf("Delete(%d): %v %v", h, ok, err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := d.Insert(randObj(rng)); err != nil {
			t.Fatal(err)
		}
	}

	if s.Seq() != pinSeq {
		t.Fatalf("pinned seq moved: %d -> %d", pinSeq, s.Seq())
	}
	other, err := NewDynamicORPKW(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := other.Insert(randObj(rng)); err != nil {
			t.Fatal(err)
		}
	}
	const staleness = "kwsc_dynamic_snapshot_staleness_ops"
	lag0 := obs.Default().Snapshot().Histogram(staleness)
	after, _, err := collectHandles(s, all, ws)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := collectHandles(other.SnapshotNow(), all, ws); err != nil {
		t.Fatal(err)
	}
	lag1 := obs.Default().Snapshot().Histogram(staleness)
	sort.Slice(after, func(i, j int) bool { return after[i] < after[j] })
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Fatalf("pinned view changed: %v then %v", before, after)
	}
	if lag := d.Seq() - pinSeq; lag != 60 {
		t.Fatalf("the pin lags the head by %d records, want 60", lag)
	}
	// Observations <= 1 fill the first bucket: the lag-0 query's, not the other's.
	if n, sum, low := lag1.Count-lag0.Count, lag1.Sum-lag0.Sum, bucket0(lag1)-bucket0(lag0); n != 2 || sum != 60 || low != 1 {
		t.Fatalf("%s moved by %d observations summing to %d, %d of them <= 1; want lags 60 and 0", staleness, n, sum, low)
	}
	ha, oa, err := s.Entries()
	if err != nil {
		t.Fatal(err)
	}
	sameEntrySet(t, ha, oa, hb, ob)
	if head := d.Seq(); head <= pinSeq {
		t.Fatalf("head seq %d did not advance past pin %d", head, pinSeq)
	}
}

// bucket0 is a histogram snapshot's observations <= 1 (none when it is empty).
func bucket0(h obs.HistSnapshot) int64 {
	if len(h.Buckets) == 0 {
		return 0
	}
	return h.Buckets[0].Count
}

// TestDynamicGaugeDeltasConcurrentChurn is the registry-delta invariant:
// several instances churning concurrently publish gauge deltas against their
// own predecessor states, so after they quiesce the shared gauges must have
// moved by exactly the sum of the instances' structural values — no lost or
// double-counted updates.
func TestDynamicGaugeDeltasConcurrentChurn(t *testing.T) {
	reg := obs.Default()
	bucketsG := reg.Gauge("kwsc_dynamic_buckets")
	liveG := reg.Gauge("kwsc_dynamic_live_objects")
	bufferedG := reg.Gauge("kwsc_dynamic_buffered")
	tombG := reg.Gauge("kwsc_dynamic_tombstones")
	pubC := reg.Counter("kwsc_dynamic_state_publishes_total")
	delC := reg.Counter("kwsc_dynamic_deletes_total")
	buckets0, live0 := bucketsG.Load(), liveG.Load()
	buffered0, tomb0 := bufferedG.Load(), tombG.Load()
	pub0, del0 := pubC.Load(), delC.Load()

	const nIdx, opsEach = 3, 500
	idxs := make([]*DynamicORPKW, nIdx)
	for i := range idxs {
		d, err := NewDynamicORPKW(2, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		idxs[i] = d
	}
	var wg sync.WaitGroup
	for i, d := range idxs {
		wg.Add(1)
		go func(i int, d *DynamicORPKW) {
			defer wg.Done()
			churn(t, d, int64(100+i), opsEach)
		}(i, d)
	}
	wg.Wait()

	var wantBuckets, wantLive, wantBuffered, wantTombs, wantDeletes int64
	for _, d := range idxs {
		live, tombs := d.Len(), d.Tombstones()
		inBuckets := 0
		for _, n := range d.Buckets() {
			inBuckets += n
		}
		// live = buffered + (bucket entries − tombstones): bucket entries
		// still include the tombstoned ones until a compaction purges them.
		wantBuckets += int64(d.NumBuckets())
		wantLive += int64(live)
		wantBuffered += int64(live - (inBuckets - tombs))
		wantTombs += int64(tombs)
		// Every op applied, so opsEach = inserts + deletes and live =
		// inserts − deletes.
		wantDeletes += int64(opsEach-live) / 2
	}
	type row struct {
		name  string
		delta int64
		want  int64
	}
	for _, r := range []row{
		{"kwsc_dynamic_buckets", bucketsG.Load() - buckets0, wantBuckets},
		{"kwsc_dynamic_live_objects", liveG.Load() - live0, wantLive},
		{"kwsc_dynamic_buffered", bufferedG.Load() - buffered0, wantBuffered},
		{"kwsc_dynamic_tombstones", tombG.Load() - tomb0, wantTombs},
		{"kwsc_dynamic_deletes_total", delC.Load() - del0, wantDeletes},
	} {
		if r.delta != r.want {
			t.Errorf("%s moved by %d, instances account for %d", r.name, r.delta, r.want)
		}
	}
	// One publish per applied mutation, exactly.
	if gotPub := pubC.Load() - pub0; gotPub != nIdx*opsEach {
		t.Errorf("publishes moved by %d, want %d (one per applied op)", gotPub, nIdx*opsEach)
	}
}
