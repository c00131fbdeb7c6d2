package serve

import (
	"testing"

	"kwsc"
	"kwsc/internal/workload"
)

// BenchmarkNewStatic is a static set-up in process: partition, shard
// datasets and index builds, the part of bench/'s setup_s that is not the
// HTTP listener. heavy is heavy-core's shape at a quarter of its N on one
// shard; tiny is tiny-scatter's, at its N, over four hash shards.
func BenchmarkNewStatic(b *testing.B) {
	const heavyN = 1 << 16
	planted, _, _ := workload.GenPlanted(workload.Planted{Seed: 7, Objects: heavyN, Dim: 2, K: 3, Out: 64, Partial: heavyN / 8})
	tiny := workload.Gen(workload.Config{Seed: 7, Objects: 50_000, Dim: 2, Vocab: 1000, DocLen: 6})
	for _, w := range []struct {
		name string
		objs []kwsc.Object
		cfg  Config
	}{
		{"heavy/shards=1", objectsOf(planted), Config{Shards: 1, K: 3}},
		{"tiny/shards=4", objectsOf(tiny), Config{Shards: 4, K: 2}},
	} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				srv, err := NewStatic(w.objs, w.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := srv.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
