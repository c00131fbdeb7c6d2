package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

// dynOracle mirrors the dynamic index with a plain map.
type dynOracle struct {
	objs map[int64]dataset.Object
}

func (o *dynOracle) query(q *geom.Rect, ws []dataset.Keyword) []int64 {
	var out []int64
	for h, obj := range o.objs {
		if q.ContainsPoint(obj.Point) && docHasAll(obj.Doc, ws) {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func randObj(rng *rand.Rand) dataset.Object {
	doc := make([]dataset.Keyword, 1+rng.Intn(4))
	for j := range doc {
		doc[j] = dataset.Keyword(rng.Intn(10))
	}
	return dataset.Object{
		Point: geom.Point{rng.Float64(), rng.Float64()},
		Doc:   doc,
	}
}

func TestDynamicValidation(t *testing.T) {
	if _, err := NewDynamicORPKW(2, 1, 0); err == nil {
		t.Fatal("k=1 must be rejected")
	}
	if _, err := NewDynamicORPKW(0, 2, 0); err == nil {
		t.Fatal("dim=0 must be rejected")
	}
	d, err := NewDynamicORPKW(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(dataset.Object{Point: geom.Point{1}, Doc: []dataset.Keyword{1}}); err == nil {
		t.Fatal("wrong dimension must be rejected")
	}
	if _, err := d.Insert(dataset.Object{Point: geom.Point{1, 2}}); err == nil {
		t.Fatal("empty document must be rejected")
	}
	if _, _, err := d.Collect(geom.UniverseRect(2), []dataset.Keyword{1}); err == nil {
		t.Fatal("wrong arity query must be rejected")
	}
}

func TestDynamicInsertQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, err := NewDynamicORPKW(2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	oracle := &dynOracle{objs: map[int64]dataset.Object{}}
	for i := 0; i < 500; i++ {
		obj := randObj(rng)
		h, err := d.Insert(obj)
		if err != nil {
			t.Fatal(err)
		}
		oracle.objs[h] = obj
		if i%50 == 0 {
			q := &geom.Rect{
				Lo: []float64{rng.Float64() * 0.5, rng.Float64() * 0.5},
				Hi: []float64{0.5 + rng.Float64()*0.5, 0.5 + rng.Float64()*0.5},
			}
			got, _, err := d.Collect(q, []dataset.Keyword{0, 1})
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			want := oracle.query(q, []dataset.Keyword{0, 1})
			if len(got) != len(want) {
				t.Fatalf("step %d: got %d, want %d", i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("step %d: handle mismatch at %d", i, j)
				}
			}
		}
	}
	if d.Len() != 500 {
		t.Fatalf("Len = %d, want 500", d.Len())
	}
}

func TestDynamicLogarithmicBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d, err := NewDynamicORPKW(2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2048; i++ {
		if _, err := d.Insert(randObj(rng)); err != nil {
			t.Fatal(err)
		}
	}
	// 2048 objects with buffer 8: at most ~log2(256)+1 occupied buckets.
	if nb := d.NumBuckets(); nb > 10 {
		t.Fatalf("%d occupied buckets; logarithmic method violated (occupancy %v)",
			nb, d.Buckets())
	}
}

func TestDynamicDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, err := NewDynamicORPKW(2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	oracle := &dynOracle{objs: map[int64]dataset.Object{}}
	var handles []int64
	for i := 0; i < 300; i++ {
		obj := randObj(rng)
		h, err := d.Insert(obj)
		if err != nil {
			t.Fatal(err)
		}
		oracle.objs[h] = obj
		handles = append(handles, h)
	}
	// Delete 200 random objects, checking consistency along the way.
	rng.Shuffle(len(handles), func(a, b int) { handles[a], handles[b] = handles[b], handles[a] })
	for i, h := range handles[:200] {
		ok, err := d.Delete(h)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("delete %d reported missing", h)
		}
		delete(oracle.objs, h)
		if i%25 == 0 {
			got, _, err := d.Collect(geom.UniverseRect(2), []dataset.Keyword{0, 1})
			if err != nil {
				t.Fatal(err)
			}
			want := oracle.query(geom.UniverseRect(2), []dataset.Keyword{0, 1})
			if len(got) != len(want) {
				t.Fatalf("after %d deletes: got %d, want %d", i+1, len(got), len(want))
			}
		}
	}
	if d.Len() != 100 {
		t.Fatalf("Len = %d, want 100", d.Len())
	}
	// Double delete and unknown handle.
	if ok, _ := d.Delete(handles[0]); ok {
		t.Fatal("double delete must report false")
	}
	if ok, _ := d.Delete(99999); ok {
		t.Fatal("unknown handle must report false")
	}
}

func TestDynamicMixedChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d, err := NewDynamicORPKW(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	oracle := &dynOracle{objs: map[int64]dataset.Object{}}
	var live []int64
	for step := 0; step < 1500; step++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			obj := randObj(rng)
			h, err := d.Insert(obj)
			if err != nil {
				t.Fatal(err)
			}
			oracle.objs[h] = obj
			live = append(live, h)
		} else {
			i := rng.Intn(len(live))
			h := live[i]
			live = append(live[:i], live[i+1:]...)
			if ok, err := d.Delete(h); err != nil || !ok {
				t.Fatalf("delete failed: ok=%v err=%v", ok, err)
			}
			delete(oracle.objs, h)
		}
		if step%100 == 99 {
			q := &geom.Rect{
				Lo: []float64{0.2, 0.2},
				Hi: []float64{0.8, 0.8},
			}
			got, _, err := d.Collect(q, []dataset.Keyword{0, 1})
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			want := oracle.query(q, []dataset.Keyword{0, 1})
			if len(got) != len(want) {
				t.Fatalf("step %d: got %d, want %d", step, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("step %d: handle mismatch", step)
				}
			}
		}
	}
}

func TestDynamicBufferDeletion(t *testing.T) {
	d, err := NewDynamicORPKW(2, 2, 100) // large buffer: stays unindexed
	if err != nil {
		t.Fatal(err)
	}
	h1, err := d.Insert(dataset.Object{Point: geom.Point{0.1, 0.1}, Doc: []dataset.Keyword{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := d.Insert(dataset.Object{Point: geom.Point{0.2, 0.2}, Doc: []dataset.Keyword{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := d.Delete(h1); !ok {
		t.Fatal("buffer delete failed")
	}
	got, _, err := d.Collect(geom.UniverseRect(2), []dataset.Keyword{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != h2 {
		t.Fatalf("got %v, want [%d]", got, h2)
	}
}

// TestDynamicTombstoneCompaction is the regression test for the tombstone
// leak: deletes against bucketed entries used to accumulate in the `deleted`
// map (and the shared fleet gauge) until a merge happened to touch them. The
// index must now compact as soon as tombstones exceed half the live count.
func TestDynamicTombstoneCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d, err := NewDynamicORPKW(2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	gauge0 := dynTombstones.Load()
	var handles []int64
	for i := 0; i < 256; i++ { // multiple of bufferCap: everything bucketed
		h, err := d.Insert(randObj(rng))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	maxTomb := 0
	for _, h := range handles[:200] {
		ok, err := d.Delete(h)
		if err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", h, ok, err)
		}
		if tomb := d.Tombstones(); tomb > maxTomb {
			maxTomb = tomb
		}
		if 2*d.Tombstones() > d.Len() {
			t.Fatalf("tombstones %d exceed half the live count %d after compaction threshold",
				d.Tombstones(), d.Len())
		}
	}
	if maxTomb == 0 {
		t.Fatal("workload never tombstoned a bucketed entry; test is vacuous")
	}
	if d.Tombstones() >= maxTomb {
		t.Fatalf("tombstone map never shrank (now %d, peak %d)", d.Tombstones(), maxTomb)
	}
	// The shared fleet gauge must track the map, not leak monotonically.
	if got, want := dynTombstones.Load()-gauge0, int64(d.Tombstones()); got != want {
		t.Fatalf("tombstone gauge delta %d, map size %d", got, want)
	}
}

// sameEntrySet fails unless the two entry sets hold the same handles beside
// the same three columns.
func sameEntrySet(t *testing.T, ha []int64, oa *dataset.Dataset, hb []int64, ob *dataset.Dataset) {
	t.Helper()
	if !slices.Equal(ha, hb) {
		t.Fatalf("handles differ: %d vs %d entries", len(ha), len(hb))
	}
	if oa == nil || ob == nil {
		if oa != ob {
			t.Fatal("one entry set has objects, the other none")
		}
		return
	}
	ap, as, aw := oa.Columns()
	bp, bs, bw := ob.Columns()
	if !slices.Equal(ap, bp) || !slices.Equal(as, bs) || !slices.Equal(aw, bw) {
		t.Fatal("object columns differ")
	}
}

// checkEntrySetInvariant asserts the columnar form of every part of d's
// published state — each bucket's handles strictly ascending, one per
// object of its dataset — and that Entries() is ascending, tombstone-free and
// exactly the oracle's objects.
func checkEntrySetInvariant(t *testing.T, d *DynamicORPKW, oracle map[int64]dataset.Object) {
	t.Helper()
	for slot, b := range d.state.Load().buckets {
		if b == nil {
			continue
		}
		if len(b.handles) != b.ix.ds.Len() {
			t.Fatalf("bucket %d: %d handles for %d objects", slot, len(b.handles), b.ix.ds.Len())
		}
		for i := 1; i < len(b.handles); i++ {
			if b.handles[i] <= b.handles[i-1] {
				t.Fatalf("bucket %d: handles not strictly ascending at %d", slot, i)
			}
		}
	}
	handles, objs, err := d.SnapshotNow().Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != len(oracle) || len(handles) != d.Len() {
		t.Fatalf("Entries() has %d handles, oracle %d, Len() %d", len(handles), len(oracle), d.Len())
	}
	for i, h := range handles {
		if i > 0 && h <= handles[i-1] {
			t.Fatalf("Entries() not strictly ascending at %d", i)
		}
		want, ok := oracle[h]
		if !ok {
			t.Fatalf("Entries() reports handle %d, dead or never inserted", h)
		}
		if !slices.Equal(objs.Point(int32(i)), want.Point) ||
			!slices.Equal(objs.Doc(int32(i)), dataset.NormalizeDoc(slices.Clone(want.Doc))) {
			t.Fatalf("handle %d: object differs from the one inserted", h)
		}
	}
}

// TestDynamicEntrySetInvariant churns an index — carries, a
// tombstone-triggered rebuild, a Restore of its own entry set and more churn
// on top — above an empty bottom and above a paged base.
func TestDynamicEntrySetInvariant(t *testing.T) {
	for _, withBase := range []bool{false, true} {
		name := map[bool]string{false: "buckets", true: "paged-base"}[withBase]
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			oracle := map[int64]dataset.Object{}
			var live []int64
			d, err := NewDynamicORPKW(2, 2, 4)
			if withBase {
				snap := testCheckpointSnapshot(23, 120, 2)
				b, berr := OpenPagedBase(writePagedCheckpoint(t, t.TempDir(), "base.ckpt", snap), PagedBaseOptions{NoMmap: true, CapPages: 8})
				if berr != nil {
					t.Fatal(berr)
				}
				defer b.Close()
				for i, h := range snap.Handles {
					oracle[h] = *snap.Objs.Object(int32(i))
				}
				live = slices.Clone(snap.Handles)
				d, err = RestoreDynamicORPKWFromBase(2, 2, 4, b, snap.NextHandle)
			}
			if err != nil {
				t.Fatal(err)
			}
			churn := func(steps int, pDelete float64) {
				for i := 0; i < steps; i++ {
					if len(live) > 0 && rng.Float64() < pDelete {
						j := rng.Intn(len(live))
						victim := live[j]
						live = slices.Delete(live, j, j+1)
						if ok, err := d.Delete(victim); err != nil || !ok {
							t.Fatalf("Delete(%d): ok=%v err=%v", victim, ok, err)
						}
						delete(oracle, victim)
						continue
					}
					obj := randObj(rng)
					h, err := d.Insert(obj)
					if err != nil {
						t.Fatal(err)
					}
					oracle[h] = obj
					live = append(live, h)
				}
			}
			churn(600, 0.3)
			checkEntrySetInvariant(t, d, oracle)
			rebuilds := dynRebuilds.Load()
			churn(400, 0.9) // tombstones pass half the live count
			if dynRebuilds.Load() == rebuilds {
				t.Fatal("delete-heavy churn never triggered a rebuild")
			}
			checkEntrySetInvariant(t, d, oracle)

			handles, objs, err := d.SnapshotNow().Entries()
			if err != nil {
				t.Fatal(err)
			}
			d, err = RestoreDynamicORPKW(2, 2, 4, handles, objs, d.NextHandle())
			if err != nil {
				t.Fatal(err)
			}
			if d.NumBuckets() > 1 {
				t.Fatalf("Restore produced %d buckets, want its entry set as one", d.NumBuckets())
			}
			checkEntrySetInvariant(t, d, oracle)
			churn(300, 0.4)
			checkEntrySetInvariant(t, d, oracle)
		})
	}
}

func TestRestoreRejectsBadEntrySets(t *testing.T) {
	objs := dataset.MustNew([]dataset.Object{randObj(rand.New(rand.NewSource(1))), randObj(rand.New(rand.NewSource(2)))})
	for name, c := range map[string]struct {
		handles []int64
		objs    *dataset.Dataset
		next    int64
	}{
		"descending":     {[]int64{5, 2}, objs, 9},
		"duplicate":      {[]int64{2, 2}, objs, 9},
		"negative":       {[]int64{-1, 2}, objs, 9},
		"past watermark": {[]int64{2, 9}, objs, 9},
		"too few":        {[]int64{2}, objs, 9},
		"no objects":     {[]int64{2}, nil, 9},
	} {
		if _, err := RestoreDynamicORPKW(2, 2, 4, c.handles, c.objs, c.next); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := RestoreDynamicORPKW(3, 2, 4, []int64{1, 2}, objs, 9); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if d, err := RestoreDynamicORPKW(2, 2, 4, nil, nil, 7); err != nil || d.Len() != 0 || d.NextHandle() != 7 {
		t.Errorf("empty entry set: err=%v", err)
	}
}

// TestDynamicReportedSlicesSurviveChurn is the callback contract: the
// *Object is scratch, but the Point and Doc slices copied out of it view
// immutable columns and read the same after any amount of later churn.
func TestDynamicReportedSlicesSurviveChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d, err := NewDynamicORPKW(2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := d.Insert(randObj(rng)); err != nil {
			t.Fatal(err)
		}
	}
	type kept struct {
		h         int64
		view, own dataset.Object
	}
	var keep []kept
	if _, err := d.Query(geom.UniverseRect(2), []dataset.Keyword{0, 1}, func(h int64, o *dataset.Object) {
		keep = append(keep, kept{h, dataset.Object{Point: o.Point, Doc: o.Doc},
			dataset.Object{Point: slices.Clone(o.Point), Doc: slices.Clone(o.Doc)}})
	}); err != nil {
		t.Fatal(err)
	}
	if len(keep) < 5 {
		t.Fatalf("only %d results; test is vacuous", len(keep))
	}
	for i := 0; i < 1000; i++ {
		if _, err := d.Insert(randObj(rng)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Delete(int64(rng.Intn(int(d.NextHandle())))); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keep {
		if !slices.Equal(k.view.Point, k.own.Point) || !slices.Equal(k.view.Doc, k.own.Doc) {
			t.Fatalf("handle %d: retained slices changed under churn", k.h)
		}
	}
}

// BenchmarkDynamicDelete times Delete of a live handle at the sizes of
// EXPERIMENTS.md. The published state is immutable, so re-storing the loaded
// one revives the batch just deleted, before its tombstones could trigger a
// rebuild.
func BenchmarkDynamicDelete(b *testing.B) {
	for _, n := range []int{11500, 80000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			d, err := NewDynamicORPKW(2, 2, 0, WithoutObs())
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := d.Insert(randObj(rng)); err != nil {
					b.Fatal(err)
				}
			}
			loaded, victims := d.state.Load(), rng.Perm(n)[:1024]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(victims) == 0 {
					d.state.Store(loaded)
				}
				if ok, err := d.Delete(int64(victims[i%len(victims)])); err != nil || !ok {
					b.Fatalf("Delete: ok=%v err=%v", ok, err)
				}
			}
		})
	}
}
