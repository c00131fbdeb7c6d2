package core

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
	"kwsc/internal/invidx"
	"kwsc/internal/workload"
)

// Tests of when a Bentley–Saxe bucket is indexed: on its first read, or by
// the merge that installs it when a query has read the index since the
// previous merge — never by a write burst no query sees. Builds are counted
// through DynamicORPKW.builds, so every assertion is hardware-free.

func burstData(n int) *dataset.Dataset {
	return workload.Gen(workload.Config{Seed: 31, Objects: n, Dim: 2, Vocab: 8, DocLen: 4})
}

// insertRange inserts objects [lo, hi) of src into d in order, reading
// nothing.
func insertRange(t testing.TB, d *DynamicORPKW, src *dataset.Dataset, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if _, err := d.Insert(*src.Object(int32(i))); err != nil {
			t.Fatal(err)
		}
	}
}

// burst inserts the first n objects of src into a fresh index with the
// default write buffer, reading nothing; handle i names object i.
func burst(t testing.TB, src *dataset.Dataset, n int) *DynamicORPKW {
	t.Helper()
	d, err := NewDynamicORPKW(2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	insertRange(t, d, src, 0, n)
	return d
}

// collectAll runs one query against d and returns its answer in report order.
func collectAll(d *DynamicORPKW, q *geom.Rect, ws []dataset.Keyword, opts QueryOpts) ([]int64, error) {
	var out []int64
	_, err := d.Query(q, ws, opts, func(h int64, _ *dataset.Object) { out = append(out, h) })
	return out, err
}

// oracleAnswer is the inverted index's answer over the first n objects of
// src, as ascending handles.
func oracleAnswer(src *dataset.Dataset, n int, q *geom.Rect, ws []dataset.Keyword) []int64 {
	var out []int64
	for _, id := range invidx.Build(src).KeywordsOnly(q, ws) {
		if int(id) < n {
			out = append(out, int64(id))
		}
	}
	slices.Sort(out)
	return out
}

var (
	buildQ  = geom.NewRect([]float64{0.1, 0.2}, []float64{0.8, 0.9})
	buildWs = []dataset.Keyword{1, 2}
)

// A write burst with no read indexes nothing, and what it stores is
// exactly what was inserted.
func TestDynamicWriteBurstBuildsNothing(t *testing.T) {
	src := burstData(10_000)
	d := burst(t, src, src.Len())
	if d.NumBuckets() < 2 {
		t.Fatalf("burst left %d buckets; test is vacuous", d.NumBuckets())
	}
	if b, o := d.builds.Load(), d.buildEntries.Load(); b != 0 || o != 0 {
		t.Fatalf("10000 unread inserts built %d buckets over %d objects, want 0", b, o)
	}
	oracle := map[int64]dataset.Object{}
	for i := int32(0); i < int32(src.Len()); i++ {
		oracle[int64(i)] = *src.Object(i)
	}
	checkEntrySetInvariant(t, d, oracle)
	if b := d.builds.Load(); b != 0 {
		t.Fatalf("Entries built %d buckets, want 0", b)
	}
}

// The first query builds every bucket once and answers as the inverted
// index does; the second builds nothing.
func TestDynamicFirstQueryBuildsEveryBucket(t *testing.T) {
	src := burstData(10_000)
	d := burst(t, src, src.Len())
	want := oracleAnswer(src, src.Len(), buildQ, buildWs)
	if len(want) == 0 {
		t.Fatal("oracle answer is empty; test is vacuous")
	}
	for i, wantBuilds := range []int64{int64(d.NumBuckets()), 0} {
		b0 := d.builds.Load()
		got, err := collectAll(d, buildQ, buildWs, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if b := d.builds.Load() - b0; b != wantBuilds {
			t.Fatalf("query %d built %d buckets, want %d", i+1, b, wantBuilds)
		}
		if e, buffered := d.buildEntries.Load(), src.Len()%64; e != int64(src.Len()-buffered) {
			t.Fatalf("after query %d: %d entries indexed, want each bucketed one once (%d)", i+1, e, src.Len()-buffered)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: %d handles, oracle %d", i+1, len(got), len(want))
		}
	}
}

// Once a query has read the index, every later carry builds the bucket it
// installs, so the reads that follow build nothing.
func TestDynamicReadBetweenCarriesBuildsOnWrite(t *testing.T) {
	const cap0 = 64
	src := burstData(4000)
	d := burst(t, src, 2000)
	if _, err := collectAll(d, buildQ, buildWs, QueryOpts{}); err != nil {
		t.Fatal(err)
	}
	// 2000 leaves 16 buffered: each step of 64 inserts carries exactly once.
	for n := 2000; n+cap0 <= src.Len(); n += cap0 {
		carries, b0 := dynCarries.Load(), d.builds.Load()
		insertRange(t, d, src, n, n+cap0)
		if c := dynCarries.Load() - carries; c != 1 {
			t.Fatalf("at %d: %d carries, want 1", n, c)
		}
		if b := d.builds.Load() - b0; b != 1 {
			t.Fatalf("at %d: the carry built %d buckets, want the 1 it installed", n, b)
		}
		b0 = d.builds.Load()
		got, err := collectAll(d, buildQ, buildWs, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if b := d.builds.Load() - b0; b != 0 {
			t.Fatalf("at %d: the read after a carry built %d buckets, want 0", n, b)
		}
		slices.Sort(got)
		if want := oracleAnswer(src, n+cap0, buildQ, buildWs); !slices.Equal(got, want) {
			t.Fatalf("at %d: %d handles, oracle %d", n, len(got), len(want))
		}
	}
}

// Readers racing on one unbuilt bucket share one build and answer alike.
func TestDynamicConcurrentFirstReadsBuildOnce(t *testing.T) {
	src := burstData(1024)
	d := burst(t, src, src.Len()) // 16 carries: one bucket of 1024
	if got := d.Buckets(); len(got) != 5 || got[4] != 1024 || d.NumBuckets() != 1 {
		t.Fatalf("occupancy %v, want one bucket of 1024", got)
	}
	b0 := d.builds.Load()
	const readers = 8
	answers := make([][]int64, readers)
	errs := make([]error, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			answers[r], errs[r] = collectAll(d, buildQ, buildWs, QueryOpts{})
		}()
	}
	close(start)
	wg.Wait()
	if b := d.builds.Load() - b0; b != 1 {
		t.Fatalf("%d racing readers built %d times, want 1", readers, b)
	}
	want := oracleAnswer(src, src.Len(), buildQ, buildWs)
	for r := 0; r < readers; r++ {
		if errs[r] != nil {
			t.Fatalf("reader %d: %v", r, errs[r])
		}
		if !slices.Equal(answers[r], answers[0]) {
			t.Fatalf("reader %d answered differently from reader 0", r)
		}
	}
	got := slices.Clone(answers[0])
	if slices.Sort(got); !slices.Equal(got, want) {
		t.Fatalf("%d handles, oracle %d", len(got), len(want))
	}
}

// A policy stop in the query that reaches unbuilt buckets returns its
// typed error with a prefix of the full answer; the build it triggered runs
// to completion, and the next query completes without rebuilding it.
func TestDynamicPolicyStopDuringFirstRead(t *testing.T) {
	const n = 64 * 160 // buffer empty: the first check is in a bucket
	src := burstData(n)
	ref := burst(t, src, n)
	full, err := collectAll(ref, buildQ, buildWs, QueryOpts{})
	if err != nil || len(full) == 0 {
		t.Fatalf("reference: %d results, err %v", len(full), err)
	}
	for _, c := range []struct {
		name   string
		policy ExecPolicy
		want   error
	}{
		{"deadline", ExecPolicy{Deadline: time.Now().Add(time.Microsecond)}, ErrDeadline},
		{"budget", ExecPolicy{NodeBudget: 1}, ErrBudget},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := burst(t, src, n)
			b0 := d.builds.Load()
			partial, err := collectAll(d, buildQ, buildWs, QueryOpts{Policy: c.policy})
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			if len(partial) >= len(full) || !slices.Equal(partial, full[:len(partial)]) {
				t.Fatalf("%d results are not a proper prefix of the %d-result answer", len(partial), len(full))
			}
			stopped := d.builds.Load() - b0
			if stopped < 1 {
				t.Fatal("the stopped query built nothing; the build must not be cut by the policy")
			}
			again, err := collectAll(d, buildQ, buildWs, QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(again, full) {
				t.Fatalf("next query: %d results, want %d", len(again), len(full))
			}
			if b := d.builds.Load() - b0; b != int64(d.NumBuckets()) {
				t.Fatalf("%d builds over both queries, want one per bucket (%d)", b, d.NumBuckets())
			}
		})
	}
}

// A bucket whose build fails or panics returns that error to every read,
// while writes, merges and Entries — which never need its index — keep
// working; the next merge replaces it with a bucket that builds.
func TestDynamicFailedBuildSticksToItsBucket(t *testing.T) {
	defer DisarmAllFailpoints()
	injected := errors.New("build refused")
	for _, c := range []struct {
		name  string
		arm   func()
		check func(t *testing.T, err error) error
	}{
		{"error", func() { armFailpointError(FPDynamicBuild, injected) }, func(t *testing.T, err error) error {
			if !errors.Is(err, injected) {
				t.Fatalf("read returned %v, want the build's error", err)
			}
			return err
		}},
		{"panic", func() { ArmFailpoint(FPDynamicBuild, func() { panic("build dies") }) }, func(t *testing.T, err error) error {
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Val != "build dies" {
				t.Fatalf("read returned %v, want the build's *PanicError", err)
			}
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := burstData(2048 + 16)
			d := burst(t, src, 1024) // one unbuilt bucket of 1024
			c.arm()
			first := c.check(t, func() error { _, err := collectAll(d, buildQ, buildWs, QueryOpts{}); return err }())
			DisarmAllFailpoints()
			b0 := d.builds.Load()
			for i := 0; i < 3; i++ {
				_, err := collectAll(d, buildQ, buildWs, QueryOpts{})
				if c.check(t, err) != first {
					t.Fatalf("read %d returned a different error than the build's", i)
				}
			}
			if b := d.builds.Load() - b0; b != 0 {
				t.Fatalf("reads after the failure built %d times, want 0", b)
			}

			// Writes never depend on the build.
			if ok, err := d.Delete(7); !ok || err != nil {
				t.Fatalf("Delete of a bucket entry: ok=%v err=%v", ok, err)
			}
			insertRange(t, d, src, 1024, 1024+16)
			handles, _, err := d.SnapshotNow().Entries()
			if err != nil || len(handles) != 1024+16-1 {
				t.Fatalf("Entries: %d handles, err %v", len(handles), err)
			}
			if _, err := collectAll(d, buildQ, buildWs, QueryOpts{}); c.check(t, err) != first {
				t.Fatal("the failed bucket answered after writes above it")
			}

			// The carry that merges the failed bucket installs one that builds.
			insertRange(t, d, src, 1024+16, src.Len())
			if got := d.Buckets(); d.NumBuckets() != 1 || got[len(got)-1] != 2047 { // 1024 + 1024 carried - 1 deleted
				t.Fatalf("occupancy %v, want the failed bucket merged into one", got)
			}
			got, err := collectAll(d, buildQ, buildWs, QueryOpts{})
			if err != nil {
				t.Fatalf("after the merge: %v", err)
			}
			want := slices.DeleteFunc(oracleAnswer(src, src.Len(), buildQ, buildWs), func(h int64) bool { return h == 7 })
			if slices.Sort(got); !slices.Equal(got, want) {
				t.Fatalf("after the merge: %d handles, oracle %d", len(got), len(want))
			}
		})
	}
}

// vetoJournal accepts every record except while veto is set.
type vetoJournal struct{ veto bool }

var errVeto = errors.New("journal veto")

func (j *vetoJournal) LogInsert(int64, dataset.Object) error {
	if j.veto {
		return errVeto
	}
	return nil
}

func (j *vetoJournal) LogDelete(int64) error { return nil }

// Insert appends to the write buffer in place. A snapshot pinned before later
// inserts, a buffer delete and a vetoed insert (which wrote its slot and never
// published it) keeps its exact answers and entry set.
func TestDynamicPinnedBufferSurvivesInPlaceAppends(t *testing.T) {
	d, err := NewDynamicORPKW(2, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	j := &vetoJournal{}
	d.SetJournal(j)
	ws := []dataset.Keyword{0, 1}
	obj := func(i int) dataset.Object {
		return dataset.Object{Point: geom.Point{float64(i) / 16, 0.5}, Doc: []dataset.Keyword{0, 1, dataset.Keyword(2 + i%3)}}
	}
	all := geom.UniverseRect(2)
	type pin struct {
		s       *DynSnapshot
		answer  []int64
		handles []int64
		objs    *dataset.Dataset
	}
	var pins []pin
	pinNow := func() {
		s := d.SnapshotNow()
		answer, _, err := collectHandles(s, all, ws)
		if err != nil {
			t.Fatal(err)
		}
		h, o, err := s.Entries()
		if err != nil {
			t.Fatal(err)
		}
		pins = append(pins, pin{s, answer, h, o})
	}
	insert := func(i int) int64 {
		h, err := d.Insert(obj(i))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	for i := 0; i < 5; i++ {
		insert(i)
	}
	pinNow() // len 5 of a 16-slot array
	for i := 5; i < 8; i++ {
		insert(i)
	}
	pinNow() // len 8 of the same array
	j.veto = true
	if _, err := d.Insert(obj(100)); !errors.Is(err, errVeto) {
		t.Fatalf("vetoed insert returned %v", err)
	}
	j.veto = false
	if d.Len() != 8 || d.NextHandle() != 8 {
		t.Fatalf("a vetoed insert changed the index: Len %d, NextHandle %d", d.Len(), d.NextHandle())
	}
	h8 := insert(8) // overwrites the vetoed slot
	pinNow()
	if ok, err := d.Delete(3); !ok || err != nil {
		t.Fatalf("buffer Delete: ok=%v err=%v", ok, err)
	}
	pinNow()
	for i := 9; i < 12; i++ {
		insert(i)
	}
	if h8 != 8 {
		t.Fatalf("insert after a veto got handle %d, want 8", h8)
	}
	for k, p := range pins {
		answer, _, err := collectHandles(p.s, all, ws)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(answer, p.answer) {
			t.Fatalf("pin %d (seq %d): answer %v, was %v", k, p.s.Seq(), answer, p.answer)
		}
		h, o, err := p.s.Entries()
		if err != nil {
			t.Fatal(err)
		}
		sameEntrySet(t, h, o, p.handles, p.objs)
	}
	want := []int64{0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11}
	got, _, err := collectHandles(d, all, ws)
	if slices.Sort(got); err != nil || !slices.Equal(got, want) {
		t.Fatalf("head answers %v (err %v), want %v", got, err, want)
	}
	if x, _, _ := d.SnapshotNow().Entries(); !slices.Equal(x, want) {
		t.Fatalf("head entries %v, want %v", x, want)
	}
}
