package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"kwsc"
	"kwsc/internal/serve"
	"kwsc/internal/workload"
)

// workloadSpec is one frozen workload: its corpus, how the system is stood
// up, its request stream, and its op counts. Op counts are per second of
// -seconds, tuned once so a run's measured phase takes about -seconds on the
// reference host, then frozen: the same seed and -seconds replay the same
// request sequence.
type workloadSpec struct {
	name, why string
	// opsPerSecond × -seconds ops are measured; warmupOps ops before them
	// are discarded. The stream is cut into slices of sliceOps ops: ≈200 ms,
	// or longer where it takes that to hold 1000 queries, so that 10 samples
	// lie beyond a slice's p99.
	opsPerSecond, warmupOps, sliceOps int
	dim, k                            int
	// prepare generates the corpus and the request stream; none of it counts
	// as set-up. seed drives the request stream only (see corpusSeed).
	prepare func(seed int64, scale float64) *instance
}

// corpusSeed generates every corpus. The corpora are frozen data sets, like
// the op counts: with the work units per query equal to within 1%,
// heavy-core's latency still moves 9% from one corpus seed to the next (a
// different tree over different points), which would bury a 5% regression
// under the spread between seeds. -seed varies what the clients ask, not
// what the server holds.
const corpusSeed = 1

// instance is a workload with its inputs generated.
type instance struct {
	spec *workloadSpec
	// The spec's op counts, shrunk by the run's scale (1 outside the tests).
	warmupOps, sliceOps int
	objs                []kwsc.Object // the corpus loaded at set-up
	// setup stands the system up under dir: from the first constructor call
	// to a serving *serve.Server. ids[i] is the id the server reports
	// objs[i] by; nil means its position (static corpora).
	setup func(dir string) (srv *serve.Server, ids []int64, err error)
	// newStream starts the request stream from its first op.
	newStream func() *stream
	// static reports a read-only corpus served by kwsc.Degraded shards, for
	// which the kwsc.CollectInto rung exists.
	static bool
	// mutates reports a stream with writes: every traced phase then needs a
	// fresh system to replay the same ops against the same state.
	mutates bool
	// reopen, when set, reopens the stopped system's data directory the way
	// the server did, for the timed cold open.
	reopen func(dir string) (io.Closer, error)
}

func specs() []*workloadSpec {
	return []*workloadSpec{tinyScatter, heavyCore, rwMixed, pagedCold}
}

func specByName(name string) *workloadSpec {
	for _, s := range specs() {
		if s.name == name {
			return s
		}
	}
	return nil
}

// instantiate generates the workload's inputs. scale shrinks the corpus and
// every op count alike; it is 1 outside the tests.
func (s *workloadSpec) instantiate(seed int64, scale float64) *instance {
	inst := s.prepare(seed, scale)
	inst.spec = s
	inst.warmupOps = scaledOps(s.warmupOps, scale, 0)
	inst.sliceOps = scaledOps(s.sliceOps, scale, 8)
	return inst
}

// measuredOps is the frozen op count of a measured phase share × seconds long.
func (s *workloadSpec) measuredOps(seconds, share, scale float64) int {
	return scaledOps(int(float64(s.opsPerSecond)*seconds*share), scale, 1)
}

func scaledOps(n int, scale float64, floor int) int { return max(int(float64(n)*scale), floor) }

func scaled(n int, scale float64) int { return scaledOps(n, scale, 256) }

func objectsOf(ds *kwsc.Dataset) []kwsc.Object {
	objs := make([]kwsc.Object, ds.Len())
	for i := range objs {
		objs[i] = *ds.Object(int32(i))
	}
	return objs
}

func wireRect(r *kwsc.Rect) *kwsc.RectWire { return &kwsc.RectWire{Lo: r.Lo, Hi: r.Hi} }

const queryLimit = 100

// tinyScatter: agent-style tiny queries against four hash shards. The core
// leg is a few µs of the round trip, so serve (JSON, admission,
// goroutine-per-leg scatter, merge) and the HTTP hop do most of the work.
var tinyScatter = &workloadSpec{
	name:         "tiny-scatter",
	why:          "tiny k=2 queries over 4 hash shards: serve and the HTTP hop, not the index, set the latency",
	opsPerSecond: 11500, warmupOps: 21000, sliceOps: 3000,
	dim: 2, k: 2,
	prepare: func(seed int64, scale float64) *instance {
		const vocab = 1000
		objs := objectsOf(workload.Gen(workload.Config{
			Seed: corpusSeed, Objects: scaled(50_000, scale), Dim: 2, Vocab: vocab, DocLen: 6}))
		return &instance{
			static: true,
			objs:   objs,
			setup: func(string) (*serve.Server, []int64, error) {
				srv, err := serve.NewStatic(objs, serve.Config{Shards: 4, K: 2})
				return srv, nil, err
			},
			newStream: func() *stream {
				rng := rand.New(rand.NewSource(seed))
				return &stream{next: func(o *op) {
					o.query(workload.RandRect(rng, 2, 0.05), workload.RandKeywords(rng, vocab, 2))
				}}
			},
		}
	},
}

// heavyCore: one shard, a planted keyword triple with long posting lists and
// a small output, so core traversal and invidx/bitpack intersection dominate
// and the fixed HTTP cost is a small share.
var heavyCore = &workloadSpec{
	name:         "heavy-core",
	why:          "planted k=3 triple with long posting lists on one shard: core traversal and intersection dominate",
	opsPerSecond: 1750, warmupOps: 4000, sliceOps: 1000,
	dim: 2, k: 3,
	prepare: func(seed int64, scale float64) *instance {
		n := scaled(262_144, scale)
		ds, kws, _ := workload.GenPlanted(workload.Planted{
			Seed: corpusSeed, Objects: n, Dim: 2, K: 3, Out: 64, Partial: n / 8})
		objs := objectsOf(ds)
		return &instance{
			static: true,
			objs:   objs,
			setup: func(string) (*serve.Server, []int64, error) {
				srv, err := serve.NewStatic(objs, serve.Config{Shards: 1, K: 3})
				return srv, nil, err
			},
			newStream: func() *stream {
				rng := rand.New(rand.NewSource(seed))
				return &stream{next: func(o *op) {
					o.query(workload.RandRect(rng, 2, 0.2+0.3*rng.Float64()), kws)
				}}
			},
		}
	},
}

// rwMixedDurable is kwscd's durable default (fsync on a timer) with
// count-triggered checkpoints, so checkpoints repeat exactly.
var rwMixedDurable = []kwsc.DurableOption{
	kwsc.WithFsyncPolicy(kwsc.FsyncInterval),
	kwsc.WithAutoCheckpoint(2000),
}

// rwMixed: the same core and serve layers used for writes beside reads. The
// stream first inserts rwBacklog objects (inside the discarded warm-up), then
// repeats 8 queries, 1 insert and 1 delete of the oldest benchmark-inserted
// handle, so the live size stays constant. The backlog is one slice long:
// every delete then names a handle acknowledged in an earlier slice.
const rwBacklog = 3000

var rwMixed = &workloadSpec{
	name:         "rw-mixed",
	why:          "8 queries : 1 insert : 1 delete on 2 durable shards: WAL, buffer copy and checkpoints beside reads",
	opsPerSecond: 11500, warmupOps: 21000, sliceOps: rwBacklog,
	dim: 2, k: 2,
	prepare: func(seed int64, scale float64) *instance {
		const vocab = 1000
		nSeed := scaled(20_000, scale)
		all := objectsOf(workload.Gen(workload.Config{
			Seed: corpusSeed, Objects: 2 * nSeed, Dim: 2, Vocab: vocab, DocLen: 6}))
		objs, fresh := all[:nSeed], all[nSeed:]
		return &instance{
			mutates: true,
			objs:    objs,
			setup: func(dir string) (*serve.Server, []int64, error) {
				srv, err := serve.NewDynamic(dir, nil, serve.Config{
					Shards: 2, Dim: 2, K: 2, DurableOptions: rwMixedDurable})
				if err != nil {
					return nil, nil, err
				}
				// The seed load is serve.Server.Load's loop, run here so the
				// oracle learns the handle of every seeded object.
				ids := make([]int64, len(objs))
				for i, o := range objs {
					resp, err := srv.Write(&kwsc.WriteRequest{Op: kwsc.OpInsert, Point: o.Point, Doc: o.Doc})
					if err != nil {
						srv.Close()
						return nil, nil, fmt.Errorf("seeding object %d: %w", i, err)
					}
					ids[i] = resp.Handle
				}
				return srv, ids, nil
			},
			newStream: func() *stream {
				rng := rand.New(rand.NewSource(seed))
				s := &stream{}
				i, nextFresh := 0, 0
				backlog := scaledOps(rwBacklog, scale, 8)
				s.next = func(o *op) {
					phase := i % 10
					switch {
					case i < backlog || phase == 4:
						o.insert(fresh[nextFresh%len(fresh)])
						nextFresh++
					case phase == 9:
						o.remove(s.popOldest())
					default:
						o.query(workload.RandRect(rng, 2, 0.1), workload.RandKeywords(rng, vocab, 2))
					}
					i++
				}
				return s
			},
		}
	},
}

// pagedCold: a durable shard reopened over its checkpoint through a 1 MiB
// pread pool a quarter the checkpoint's size, so pager pin/evict/verify and
// the PagedBase posting scan dominate.
const (
	pagedObjects  = 80_000
	pagedCapPages = 256
)

var pagedCold = &workloadSpec{
	name:         "paged-cold",
	why:          "read-only queries on a checkpoint served through a 1 MiB pread pool 1/4 its size: pager and codec dominate",
	opsPerSecond: 3100, warmupOps: 6000, sliceOps: 1000,
	dim: 2, k: 2,
	prepare: func(seed int64, scale float64) *instance {
		const vocab = 1000
		objs := objectsOf(workload.Gen(workload.Config{
			Seed: corpusSeed, Objects: scaled(pagedObjects, scale), Dim: 2, Vocab: vocab, DocLen: 6}))
		durable := []kwsc.DurableOption{
			kwsc.WithFsyncPolicy(kwsc.FsyncInterval),
			kwsc.WithPagedRecovery(kwsc.PagedBaseOptions{NoMmap: true, CapPages: pagedCapPages}),
		}
		return &instance{
			objs: objs,
			reopen: func(dir string) (io.Closer, error) {
				return kwsc.OpenDurable(filepath.Join(dir, "shard-000"), 2, 2, durable...)
			},
			setup: func(dir string) (*serve.Server, []int64, error) {
				ids, err := writeShardDir(filepath.Join(dir, "shard-000"), objs)
				if err != nil {
					return nil, nil, err
				}
				srv, err := serve.NewDynamic(dir, nil, serve.Config{Shards: 1, Dim: 2, K: 2, DurableOptions: durable})
				return srv, ids, err
			},
			newStream: func() *stream {
				rng := rand.New(rand.NewSource(seed))
				return &stream{next: func(o *op) {
					o.query(workload.RandRect(rng, 2, 0.2), workload.RandKeywords(rng, vocab, 2))
				}}
			},
		}
	},
}

// writeShardDir writes one durable shard directory holding objs and a
// checkpoint of them, and returns their handles (with one shard a global
// handle is the local one).
func writeShardDir(dir string, objs []kwsc.Object) ([]int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := kwsc.OpenDurable(dir, 2, 2, kwsc.WithFsyncPolicy(kwsc.FsyncInterval))
	if err != nil {
		return nil, err
	}
	ids := make([]int64, len(objs))
	for i, o := range objs {
		if ids[i], err = d.Insert(o); err != nil {
			d.Close()
			return nil, fmt.Errorf("loading object %d: %w", i, err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		d.Close()
		return nil, err
	}
	return ids, d.Close()
}

// op is one request of the stream.
type op struct {
	kind opKind
	q    kwsc.QueryRequest
	w    kwsc.WriteRequest
}

type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opDelete
)

func (o *op) query(r *kwsc.Rect, ws []kwsc.Keyword) {
	*o = op{kind: opQuery, q: kwsc.QueryRequest{Rect: wireRect(r), Keywords: ws, Limit: queryLimit}}
}

func (o *op) insert(obj kwsc.Object) {
	*o = op{kind: opInsert, w: kwsc.WriteRequest{Op: kwsc.OpInsert, Point: obj.Point, Doc: obj.Doc}}
}

func (o *op) remove(handle int64) {
	*o = op{kind: opDelete, w: kwsc.WriteRequest{Op: kwsc.OpDelete, Handle: handle}}
}

// stream yields the workload's ops in order. Deletes name handles the server
// handed out earlier in the same stream, so the runner reports every
// acknowledged insert back through inserted.
type stream struct {
	next     func(*op)
	handles  []int64 // benchmark-inserted, not yet deleted, oldest first
	consumed int
}

func (s *stream) inserted(handle int64) { s.handles = append(s.handles, handle) }

func (s *stream) popOldest() int64 {
	h := s.handles[s.consumed]
	s.consumed++
	return h
}
