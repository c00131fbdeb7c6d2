package serve

import (
	"fmt"
	"math"
	"sort"

	"kwsc"
)

// PartitionMode selects how objects map to shards.
type PartitionMode int

const (
	// PartitionHash routes each object by a content hash of its point and
	// document: uniform occupancy under any input distribution, no routing
	// state, but range queries touch every shard.
	PartitionHash PartitionMode = iota
	// PartitionRange routes each object by its dimension-0 coordinate
	// against precomputed rank-space cut points: narrow dimension-0 query
	// ranges touch few shards, at the cost of occupancy skew when the
	// write distribution drifts from the cuts.
	PartitionRange
)

// ParsePartitionMode parses "hash" or "range".
func ParsePartitionMode(s string) (PartitionMode, error) {
	switch s {
	case "hash":
		return PartitionHash, nil
	case "range":
		return PartitionRange, nil
	}
	return 0, fmt.Errorf("serve: unknown partition mode %q (want hash or range)", s)
}

func (m PartitionMode) String() string {
	if m == PartitionRange {
		return "range"
	}
	return "hash"
}

// partitioner routes objects to shards. It is immutable after construction
// and safe for concurrent use.
type partitioner struct {
	mode PartitionMode
	n    int
	// cuts are the range-mode boundaries: shard i owns coordinates in
	// [cuts[i-1], cuts[i]) with implicit cuts[-1] = -Inf and
	// cuts[n-1] = +Inf. len(cuts) == n-1.
	cuts []float64
}

// route returns the owning shard for an object. Routing is a pure function
// of the object's content (FNV-1a, no process-local seed), so a durable
// deployment routes an object to the same shard after every restart.
func (p *partitioner) route(obj kwsc.Object) int {
	if p.n == 1 {
		return 0
	}
	if p.mode == PartitionRange {
		x := obj.Point[0]
		// Shard = number of cuts <= x: shard i owns [cuts[i-1], cuts[i]).
		return sort.Search(len(p.cuts), func(i int) bool { return p.cuts[i] > x })
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, x := range obj.Point {
		v := math.Float64bits(x)
		for s := 0; s < 64; s += 8 {
			h = (h ^ uint64(byte(v>>s))) * prime64
		}
	}
	for _, w := range obj.Doc {
		for s := 0; s < 32; s += 8 {
			h = (h ^ uint64(byte(w>>s))) * prime64
		}
	}
	return int(h % uint64(p.n))
}

// misses reports whether shard i's key range cannot meet the closed rectangle
// q: under range partitioning shard i owns dimension-0 coordinates in
// [cuts[i-1], cuts[i]), so it is missed when q ends below cuts[i-1] or starts
// at or above cuts[i] (x == cuts[i] belongs to shard i+1). Hash partitioning
// misses nothing.
func (p *partitioner) misses(i int, q *kwsc.Rect) bool {
	if p.mode != PartitionRange || p.n == 1 {
		return false
	}
	return (i > 0 && q.Hi[0] < p.cuts[i-1]) || (i < p.n-1 && q.Lo[0] >= p.cuts[i])
}

// newPartitioner builds the router. Range mode derives its cuts from the
// dimension-0 quantiles of the seed objects; with no seed data the cuts
// split [0, 1] uniformly (matching the synthetic workload generators), and
// later writes still route consistently — cuts are fixed for the lifetime
// of the deployment.
func newPartitioner(mode PartitionMode, n int, seed []kwsc.Object) *partitioner {
	p := &partitioner{mode: mode, n: n}
	if mode != PartitionRange || n == 1 {
		return p
	}
	p.cuts = make([]float64, n-1)
	if len(seed) == 0 {
		for i := range p.cuts {
			p.cuts[i] = float64(i+1) / float64(n)
		}
		return p
	}
	xs := make([]float64, len(seed))
	for i, o := range seed {
		xs[i] = o.Point[0]
	}
	sort.Float64s(xs)
	for i := range p.cuts {
		// The upper-rank quantile: shard i receives ranks [i*len/n, (i+1)*len/n).
		p.cuts[i] = xs[(i+1)*len(xs)/n]
	}
	return p
}

// split groups the seed objects by owning shard, remembering each object's
// global id (its position in the input). Groups may be empty — a static
// shard with no objects serves empty results.
func (p *partitioner) split(objs []kwsc.Object) (groups [][]kwsc.Object, globals [][]int64) {
	groups = make([][]kwsc.Object, p.n)
	globals = make([][]int64, p.n)
	for i, o := range objs {
		s := p.route(o)
		groups[s] = append(groups[s], o)
		globals[s] = append(globals[s], int64(i))
	}
	return groups, globals
}

// Dynamic-corpus handles encode the owning shard so deletes route without
// any directory: global = local*n + shard.

func globalHandle(local int64, shard, n int) int64 { return local*int64(n) + int64(shard) }

func splitHandle(global int64, n int) (local int64, shard int) {
	return global / int64(n), int(global % int64(n))
}
