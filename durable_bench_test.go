package kwsc

// Durability benchmarks, snapshotted by bench-save alongside the query
// families: WAL append throughput under each fsync policy (the cost of the
// acknowledged-write guarantee) and recovery replay throughput (the cost of
// reopening after a crash, which checkpointing exists to bound).

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// durableObjs builds n insertable objects with 3-keyword docs.
func durableObjs(n int) []Object {
	r := rand.New(rand.NewSource(7))
	objs := make([]Object, n)
	for i := range objs {
		perm := r.Perm(16)
		objs[i] = Object{
			Point: Point{r.Float64(), r.Float64()},
			Doc:   []Keyword{Keyword(perm[0]), Keyword(perm[1]), Keyword(perm[2])},
		}
	}
	return objs
}

func BenchmarkWALAppend(b *testing.B) {
	for _, tc := range []struct {
		name string
		opt  DurableOption
	}{
		{"fsync=none", WithFsyncPolicy(FsyncNone)},
		{"fsync=interval", WithFsyncPolicy(FsyncInterval)}, // kwscd's and bench/'s policy
		{"fsync=every-op", WithFsyncPolicy(FsyncEveryOp)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			d, err := OpenDurable(b.TempDir(), 2, 2, tc.opt)
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			objs := durableObjs(1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Insert(objs[i%len(objs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecoveryReplay times reopening a directory whose log holds ops
// inserts and no checkpoint. Replay only gathers columns: a bucket is indexed
// when first read, so the "+query" rows add one query that reads every bucket
// — open plus the builds it deferred.
func BenchmarkRecoveryReplay(b *testing.B) {
	for _, ops := range []int{1 << 10, 1 << 12} {
		for _, query := range []bool{false, true} {
			name := fmt.Sprintf("ops=%d", ops)
			if query {
				name += "+query"
			}
			b.Run(name, func(b *testing.B) {
				dir := b.TempDir()
				d, err := OpenDurable(dir, 2, 2, WithFsyncPolicy(FsyncNone))
				if err != nil {
					b.Fatal(err)
				}
				for _, o := range durableObjs(ops) {
					if _, err := d.Insert(o); err != nil {
						b.Fatal(err)
					}
				}
				if err := d.Close(); err != nil {
					b.Fatal(err)
				}
				all := NewRect([]float64{0, 0}, []float64{1, 1})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d, err := OpenDurable(dir, 2, 2, WithFsyncPolicy(FsyncNone))
					if err != nil {
						b.Fatal(err)
					}
					if d.Len() != ops {
						b.Fatalf("replay recovered %d objects, want %d", d.Len(), ops)
					}
					if query {
						if _, _, err := collectHandles(d, all, []Keyword{1, 2}); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer() // close (fsync) off the clock: replay is the subject
					d.Close()
					b.StartTimer()
				}
				b.ReportMetric(float64(ops), "replayed-ops/op")
			})
		}
	}
}

// BenchmarkConcurrentReadDuringChurn measures reader latency on the durable
// index while writer goroutines churn with per-op fsync — the non-blocking
// read guarantee as a number: with copy-on-write publication, reader
// throughput at writers=1 or writers=4 should stay within a small factor of
// the idle writers=0 case instead of collapsing behind the fsync. (On a
// single-core machine the busy writers steal reader timeslices, so the gap
// there measures CPU contention, not blocking; TestReadersNotBlockedBySlowFsync
// pins the blocking contract itself.)
func BenchmarkConcurrentReadDuringChurn(b *testing.B) {
	for _, writers := range []int{0, 1, 4} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			dir := b.TempDir()
			// Seed without paying per-op fsync, then reopen under the
			// policy the churn writers will stress.
			seed, err := OpenDurable(dir, 2, 2, WithFsyncPolicy(FsyncNone))
			if err != nil {
				b.Fatal(err)
			}
			for _, o := range durableObjs(4096) {
				if _, err := seed.Insert(o); err != nil {
					b.Fatal(err)
				}
			}
			if err := seed.Close(); err != nil {
				b.Fatal(err)
			}
			d, err := OpenDurable(dir, 2, 2, WithFsyncPolicy(FsyncEveryOp))
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()

			var stop atomic.Bool
			var wg sync.WaitGroup
			churn := durableObjs(1024)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Insert/delete pairs keep the index size stable, so
					// the readers' work stays comparable across writer
					// counts and the measurement isolates interference.
					for i := 0; !stop.Load(); i++ {
						h, err := d.Insert(churn[(w*331+i)%len(churn)])
						if err != nil {
							b.Error(err)
							return
						}
						if _, err := d.Delete(h); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			q := NewRect([]float64{0.2, 0.2}, []float64{0.7, 0.7})
			ws := []Keyword{1, 2}
			// Replay indexed nothing: one query builds the buckets, so the
			// loop times steady reads, not their first build.
			if _, _, err := collectHandles(d, q, ws); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := collectHandles(d, q, ws); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
		})
	}
}
