package kwsc

// Out-of-core cold-start benchmarks (DESIGN.md §15; run by `make bench`,
// ColdStartPagedORPKW also by bench-save and bench-compare): how fast a
// process goes from nothing to answering its first query, for each of the
// ways an index can come up.
//
//   - ColdStartPagedORPKW      open a saved KWCP2 flat image (mmap and
//                              pread) and answer the probe query
//   - ColdStartRebuildORPKW    rebuild the same index from the raw dataset
//                              (the only option before paged snapshots)
//   - ColdStartDurable         reopen a durable directory whose state is
//                              one checkpoint + a short WAL tail, with the
//                              decoding recovery vs. paged recovery
//   - PagedResidentCapped      serve scans out of a pread buffer pool with
//                              a hard page cap, reporting resident bytes —
//                              the bounded-memory property that makes
//                              larger-than-RAM serving safe
//   - PagedBaseQueryCapped     random k=2 queries on a Zipf corpus through
//                              a pool a quarter of the checkpoint, with
//                              page pins and misses per query — the I/O
//                              cost of the paged base's intersection
//
// Every timed iteration is a full open → probe → close cycle, so ns/op is
// literally "cold start to first result". The probe is the planted
// conjunctive query (OUT=64), which faults in the tree skeleton, posting
// payloads, and point columns — an open that defers all work would still
// have to pay it here.
//
// The N=1M tier is opt-in via KWSC_BENCH_1M=1, like the other 1M benches.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"kwsc/internal/pager"
	"kwsc/internal/workload"
)

// savedPagedFixture builds the planted flat index once and saves it at a
// fresh path (the pager registry is per-path, so each access mode gets its
// own file).
func savedPagedFixture(b *testing.B, dir, name string, n, k int) (string, []Keyword, *Rect) {
	b.Helper()
	ds, kws, region := plantedFixture(1, n, 2, k, 64, n/8)
	ix, err := NewORPKW(ds, k)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, name+".kwflat")
	if err := SavePagedORPKW(path, ix); err != nil {
		b.Fatal(err)
	}
	return path, kws, region
}

func benchColdStartPaged(b *testing.B, n, k int, o PagedFileOptions, name string) {
	path, kws, region := savedPagedFixture(b, b.TempDir(), name, n, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, h, err := OpenPagedORPKW(path, o)
		if err != nil {
			b.Fatal(err)
		}
		got, _, err := ix.CollectInto(region, kws, QueryOpts{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != 64 {
			b.Fatalf("OUT drifted: %d", len(got))
		}
		if err := h.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdStartPagedORPKW: map (or open for pread) a saved flat image
// and answer the probe. No decode, no rebuild — the big columns alias the
// mapping and fault in on demand.
func BenchmarkColdStartPagedORPKW(b *testing.B) {
	const n, k = 1 << 16, 2
	b.Run(fmt.Sprintf("N=%d/mmap", n), func(b *testing.B) {
		benchColdStartPaged(b, n, k, PagedFileOptions{}, "mmap")
	})
	b.Run(fmt.Sprintf("N=%d/pread", n), func(b *testing.B) {
		benchColdStartPaged(b, n, k, PagedFileOptions{NoMmap: true}, "pread")
	})
}

// BenchmarkColdStartRebuildORPKW: the pre-paged baseline — rebuild the flat
// index from the raw dataset on every start. The committed series pins the
// paged/rebuild ratio (the ISSUE gate is >= 10x at N=65536).
func BenchmarkColdStartRebuildORPKW(b *testing.B) {
	const n, k = 1 << 16, 2
	ds, kws, region := plantedFixture(1, n, 2, k, 64, n/8)
	b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix, err := NewORPKW(ds, k)
			if err != nil {
				b.Fatal(err)
			}
			got, _, err := ix.CollectInto(region, kws, QueryOpts{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != 64 {
				b.Fatalf("OUT drifted: %d", len(got))
			}
		}
	})
}

// durableFixtureDir populates a durable directory once: n inserts, one
// checkpoint covering all of them, then a short tail of ops so recovery has
// both a checkpoint to load and a WAL to replay.
func durableFixtureDir(b *testing.B, n, k, tail int) (string, []Keyword, *Rect) {
	b.Helper()
	ds, kws, region := plantedFixture(1, n+tail, 2, k, 64, n/8)
	dir := b.TempDir()
	d, err := OpenDurable(dir, 2, k, WithFsyncPolicy(FsyncNone))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := d.Insert(*ds.Object(int32(i))); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	for i := n; i < n+tail; i++ {
		if _, err := d.Insert(*ds.Object(int32(i))); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	return dir, kws, region
}

func benchColdStartDurable(b *testing.B, dir string, kws []Keyword, region *Rect, k int, opts ...DurableOption) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		d, err := OpenDurable(dir, 2, k, append([]DurableOption{WithFsyncPolicy(FsyncNone)}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		got, _, err := collectHandles(d, region, kws)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != 64 {
			b.Fatalf("OUT drifted: %d", len(got))
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdStartDurable: reopen a durable directory holding one
// N=65536 checkpoint plus a 64-op WAL tail. "decode" is the legacy path
// (full checkpoint decode into the heap); "paged" maps the checkpoint and
// replays only the tail.
func BenchmarkColdStartDurable(b *testing.B) {
	const n, k, tail = 1 << 16, 2, 64
	dir, kws, region := durableFixtureDir(b, n, k, tail)
	b.Run(fmt.Sprintf("N=%d/decode", n), func(b *testing.B) {
		benchColdStartDurable(b, dir, kws, region, k)
	})
	b.Run(fmt.Sprintf("N=%d/paged-mmap", n), func(b *testing.B) {
		benchColdStartDurable(b, dir, kws, region, k, WithPagedRecovery(PagedBaseOptions{}))
	})
	b.Run(fmt.Sprintf("N=%d/paged-pread", n), func(b *testing.B) {
		benchColdStartDurable(b, dir, kws, region, k, WithPagedRecovery(PagedBaseOptions{NoMmap: true}))
	})
}

// BenchmarkPagedResidentCapped: query a paged checkpoint through a pread
// buffer pool capped at 64 pages (256 KiB) while the checkpoint itself is
// megabytes. ns/op is the query under the cap; bytes-resident is the
// pool's page frames after the run — it must stay at or under the cap no
// matter how much of the file the queries touch. This is the
// larger-than-RAM property at benchmark scale: resident memory is set by
// the cap, not the dataset.
func BenchmarkPagedResidentCapped(b *testing.B) {
	const n, k, capPages = 1 << 16, 2, 64
	dir, kws, region := durableFixtureDir(b, n, k, 0)
	d, err := OpenDurable(dir, 2, k, WithFsyncPolicy(FsyncNone),
		WithPagedRecovery(PagedBaseOptions{NoMmap: true, CapPages: capPages}))
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := collectHandles(d, region, kws)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != 64 {
			b.Fatalf("OUT drifted: %d", len(got))
		}
	}
	b.StopTimer()
	resident := Metrics().Gauges["kwsc_pager_resident_pages"]
	if resident > capPages {
		b.Fatalf("buffer pool holds %d pages, cap is %d", resident, capPages)
	}
	b.ReportMetric(float64(resident)*float64(pager.PageSize), "bytes-resident")
}

// BenchmarkPagedBaseQueryCapped: the steady-state cost of a query served by
// the paged base alone. The corpus is the Zipf one of the paged-cold workload
// (bench/), the pread pool holds a quarter of the checkpoint's pages, and
// the queries are random keyword pairs over random rectangles, so most of
// them intersect one short list with one long one. ns/op is the facade
// Collect; the rest are counts that do not depend on the host: ops/op the
// candidates taken from the drive list inside the rectangle's cells, nodes/op
// the cell-tree nodes the rectangle's descent visits, results/op the rows
// reported, pins/op and misses/op the page pins (and the faulting share of
// them) a query makes.
func BenchmarkPagedBaseQueryCapped(b *testing.B) {
	const n, k, vocab = 1 << 16, 2, 1000
	ds := workload.Gen(workload.Config{Seed: 1, Objects: n, Dim: 2, Vocab: vocab, DocLen: 6})
	dir := b.TempDir()
	d, err := OpenDurable(dir, 2, k, WithFsyncPolicy(FsyncNone))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := d.Insert(*ds.Object(int32(i))); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	ckpts, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if len(ckpts) != 1 {
		b.Fatalf("checkpoints in %s: %v", dir, ckpts)
	}
	fi, err := os.Stat(ckpts[0])
	if err != nil {
		b.Fatal(err)
	}
	capPages := int(fi.Size() / pager.PageSize / 4)
	d, err = OpenDurable(dir, 2, k, WithFsyncPolicy(FsyncNone),
		WithPagedRecovery(PagedBaseOptions{NoMmap: true, CapPages: capPages}))
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()

	type query struct {
		region *Rect
		kws    []Keyword
	}
	rng := rand.New(rand.NewSource(2))
	queries := make([]query, 4096)
	for i := range queries {
		queries[i] = query{workload.RandRect(rng, 2, 0.2), workload.RandKeywords(rng, vocab, k)}
	}
	pins := func() (hits, misses int64) {
		m := Metrics()
		return m.Counter("kwsc_pager_pin_hits_total"), m.Counter("kwsc_pager_pin_misses_total")
	}
	// One pass over the query ring fills the pool, so the timed loop starts
	// from the steady state whatever b.N is.
	for _, q := range queries {
		if _, _, err := collectHandles(d, q.region, q.kws); err != nil {
			b.Fatal(err)
		}
	}
	hits0, misses0 := pins()
	var ops, nodes, results int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		_, st, err := collectHandles(d, q.region, q.kws)
		if err != nil {
			b.Fatal(err)
		}
		ops, nodes, results = ops+st.Ops, nodes+int64(st.NodesVisited), results+int64(st.Reported)
	}
	b.StopTimer()
	hits, misses := pins()
	b.ReportMetric(float64(ops)/float64(b.N), "ops/op")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(results)/float64(b.N), "results/op")
	b.ReportMetric(float64(hits-hits0+misses-misses0)/float64(b.N), "pins/op")
	b.ReportMetric(float64(misses-misses0)/float64(b.N), "misses/op")
}

// --- N=1M tier (opt-in: KWSC_BENCH_1M=1) -------------------------------------

// BenchmarkColdStartPagedORPKW1M is the mmap cold start at a million
// objects: the flat image is ~hundreds of MB, and opening it still costs
// milliseconds because nothing is decoded up front.
func BenchmarkColdStartPagedORPKW1M(b *testing.B) {
	if os.Getenv("KWSC_BENCH_1M") == "" {
		b.Skip("set KWSC_BENCH_1M=1 for the N=1M tier")
	}
	const n, k = 1 << 20, 2
	b.Run(fmt.Sprintf("N=%d/mmap", n), func(b *testing.B) {
		benchColdStartPaged(b, n, k, PagedFileOptions{}, "mmap1m")
	})
}
