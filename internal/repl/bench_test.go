package repl

import (
	"net/http/httptest"
	"testing"

	"kwsc/internal/wal"
)

// BenchmarkFollowerCatchUp measures cold follower catch-up: each iteration
// opens a fresh follower against a primary holding a ~2000-op history and
// polls until the whole stream is applied (checkpoint download + frame
// decode + replay into the follower's own durable state). ns/op is the full
// catch-up, so ops / (ns/op) is the replication throughput ceiling.
// Deliberately outside the tier-1 BENCH_REGEX baseline — run with:
//
//	go test -run '^$' -bench FollowerCatchUp ./internal/repl/
func BenchmarkFollowerCatchUp(b *testing.B) {
	const nOps = 2000
	dir := b.TempDir()
	d, err := wal.Open(dir, 2, 2, wal.WithSyncPolicy(wal.SyncNone))
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	ops := replWorkload(7, nOps)
	handles := map[int]int64{}
	for i, op := range ops {
		if op.del {
			if _, err := d.Delete(handles[op.target]); err != nil {
				b.Fatal(err)
			}
		} else {
			h, err := d.Insert(op.obj)
			if err != nil {
				b.Fatal(err)
			}
			handles[i] = h
		}
	}
	want := d.Seq()
	ship := &Shipper{Dir: dir, Dim: 2, K: 2, LastSeq: d.Seq}
	srv := httptest.NewServer(ship.Handler())
	defer srv.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := FollowerConfig{
			Dir: b.TempDir(), Primary: srv.URL, Dim: 2, K: 2,
			WALOptions: []wal.Option{wal.WithSyncPolicy(wal.SyncNone)},
		}
		b.StartTimer()
		f, err := OpenFollower(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for f.AppliedSeq() < want {
			if _, err := f.Poll(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(nOps)/float64(b.Elapsed().Seconds()/float64(b.N)), "ops/s")
}
