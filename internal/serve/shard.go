package serve

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"kwsc"
)

// ErrReadOnly reports a write against a static corpus.
var ErrReadOnly = errors.New("serve: static corpus is read-only")

// legResult is one answered scatter leg: ascending global ids plus where and
// how fresh the answer came from. A policy stop carries the prefix-correct
// partial ids alongside the typed error.
type legResult struct {
	ids []int64
	st  kwsc.QueryStats
	seq uint64
	err error
	// replica names the group member that answered ("writer", "replica-N";
	// empty for a plain non-replicated shard).
	replica string
	// stalenessMs is the measured replication lag age of the answering
	// replica (0 for authoritative legs, -1 for a never-caught-up follower).
	stalenessMs int64
	// stale marks an answer older than the request's staleness bound —
	// served anyway as graceful degradation, surfaced to the client.
	stale bool
}

// legBuf is one leg's reusable id buffers. The scatter owns it (pooled with
// the per-request state); a local leg's legResult.ids aliases buf.ids, so the
// result is only valid until the buffer's next use.
type legBuf struct {
	local []int32 // static shards: dataset-local ids out of CollectInto
	ids   []int64 // global ids, ascending

	// A dynamic leg's report callback, built once per buffer, and the
	// query's fields it reads (dynamicLeg sets them).
	report func(h int64, obj *kwsc.Object)
	exact  kwsc.Region
	id, n  int
}

// keep is a dynamic leg's report: a hit inside the exact region joins ids
// as a global id.
func (b *legBuf) keep(h int64, obj *kwsc.Object) {
	if b.exact != nil && !b.exact.ContainsPoint(obj.Point) {
		return
	}
	b.ids = append(b.ids, globalHandle(h, b.id, b.n))
}

// shard is one partition of the served dataset. Implementations must be
// safe for concurrent use; collect must return ids ascending, appended into
// buf when the leg is answered locally. req is the original wire request,
// carried so replica groups can forward the leg to a remote process; local
// shards answer from the parsed arguments alone. remote reports whether a
// read under the staleness bound may be answered over the network, and so
// block on it.
type shard interface {
	remote(staleness time.Duration) bool
	collect(req *kwsc.QueryRequest, q *kwsc.Rect, exact kwsc.Region, ws []kwsc.Keyword, opts kwsc.QueryOpts, staleness time.Duration, buf *legBuf) legResult
	insert(obj kwsc.Object) (global int64, seq uint64, err error)
	remove(local int64) (ok bool, seq uint64, err error)
	// seq is the operation prefix a leg entered now would answer at (0 for
	// static shards).
	seq() uint64
	live() int
	describe() map[string]any
	close() error
}

// staticShard serves a read-only partition from its index alone: kwsc.ORPKW
// at d <= 2, kwsc.ORPKWHigh at d >= 3. In the degraded band a node-budget
// stop returns the prefix-correct partial answer, as on every shard kind; a
// recovered index panic is a failed leg. Beside its index it keeps only its
// points by local id, which the exact-region filter reads: the documents
// live in the index alone.
type staticShard struct {
	ix      kwsc.Index[*kwsc.Rect] // nil for an empty partition
	points  []float64              // local id -> point, dim coordinates a row
	dim     int
	globals []int64 // local id -> global id
}

func (s *staticShard) remote(time.Duration) bool { return false }

// legOpts is the options a leg runs its index with. A leg that filters the
// index's bounding-box hits by an exact region runs without a limit: the
// index would spend it on hits the filter then drops. gather cuts the
// merged ids to the limit either way.
func legOpts(opts kwsc.QueryOpts, exact kwsc.Region) kwsc.QueryOpts {
	if exact != nil {
		opts.Limit = 0
	}
	return opts
}

func (s *staticShard) collect(_ *kwsc.QueryRequest, q *kwsc.Rect, exact kwsc.Region, ws []kwsc.Keyword, opts kwsc.QueryOpts, _ time.Duration, buf *legBuf) legResult {
	if s.ix == nil {
		return legResult{}
	}
	if buf.local == nil {
		buf.local = make([]int32, 0, 64) // a nil buffer would make CollectInto allocate its result
	}
	local, st, err := s.ix.CollectInto(q, ws, legOpts(opts, exact), buf.local)
	if local != nil {
		buf.local = local
	}
	ids := buf.ids[:0]
	for _, id := range local {
		if exact != nil && !exact.ContainsPoint(s.points[int(id)*s.dim:int(id+1)*s.dim]) {
			continue
		}
		ids = append(ids, s.globals[id])
	}
	slices.Sort(ids)
	buf.ids = ids
	return legResult{ids: ids, st: st, err: err}
}

func (s *staticShard) insert(kwsc.Object) (int64, uint64, error) { return 0, 0, ErrReadOnly }
func (s *staticShard) remove(int64) (bool, uint64, error)        { return false, 0, ErrReadOnly }
func (s *staticShard) seq() uint64                               { return 0 }

func (s *staticShard) live() int { return len(s.globals) }

func (s *staticShard) describe() map[string]any {
	return map[string]any{"type": "static", "live": s.live()}
}

func (s *staticShard) close() error { return nil }

// closer is the in-memory index's missing method: it owns nothing to close.
type closer interface{ Close() error }

// snapCache is a dynamic leg's bounded-staleness read cache: one pinned MVCC
// snapshot, refreshed when a request's staleness bound is tighter than its
// age.
type snapCache struct {
	now    func() time.Time
	mu     sync.Mutex
	snap   *kwsc.DynSnapshot
	snapAt time.Time
}

// view returns the read view of ix for a query: a cached snapshot no older
// than staleness when one is allowed, else a fresh pin. A read that allows no
// staleness pins the current state with no lock and no clock read, so
// concurrent fresh reads never queue; only a bounded read consults and
// refreshes the cache.
func (c *snapCache) view(ix kwsc.DynamicIndex, staleness time.Duration) *kwsc.DynSnapshot {
	if staleness <= 0 {
		return ix.SnapshotNow()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	if c.snap == nil || now.Sub(c.snapAt) > staleness {
		c.snap, c.snapAt = ix.SnapshotNow(), now
	}
	return c.snap
}

// dynamicLeg answers shard id of n from snap: handles become global ids (see
// globalHandle), hits outside the exact region are dropped, and the ids are
// sorted into buf.
func dynamicLeg(snap *kwsc.DynSnapshot, id, n int, q *kwsc.Rect, exact kwsc.Region, ws []kwsc.Keyword, opts kwsc.QueryOpts, buf *legBuf) legResult {
	if buf.report == nil {
		buf.report = buf.keep
	}
	buf.ids, buf.exact, buf.id, buf.n = buf.ids[:0], exact, id, n
	st, err := snap.Query(q, ws, legOpts(opts, exact), buf.report)
	buf.exact = nil
	slices.Sort(buf.ids)
	return legResult{ids: buf.ids, st: st, seq: snap.Seq(), err: err}
}

// dynamicShard serves one partition from a mutable index (durable or
// in-memory). Global handles encode the shard id (see globalHandle) so
// deletes route statelessly.
type dynamicShard struct {
	id, n int
	ix    kwsc.DynamicIndex
	snapCache
}

func (s *dynamicShard) seq() uint64 { return s.ix.Seq() }

func (s *dynamicShard) remote(time.Duration) bool { return false }

func (s *dynamicShard) collect(_ *kwsc.QueryRequest, q *kwsc.Rect, exact kwsc.Region, ws []kwsc.Keyword, opts kwsc.QueryOpts, staleness time.Duration, buf *legBuf) legResult {
	return dynamicLeg(s.view(s.ix, staleness), s.id, s.n, q, exact, ws, opts, buf)
}

func (s *dynamicShard) insert(obj kwsc.Object) (int64, uint64, error) {
	local, err := s.ix.Insert(obj)
	if err != nil {
		return 0, 0, err
	}
	return globalHandle(local, s.id, s.n), s.seq(), nil
}

func (s *dynamicShard) remove(local int64) (bool, uint64, error) {
	ok, err := s.ix.Delete(local)
	if err != nil {
		return false, 0, err
	}
	return ok, s.seq(), nil
}

func (s *dynamicShard) live() int { return s.ix.Len() }

func (s *dynamicShard) describe() map[string]any {
	return map[string]any{"type": "dynamic", "live": s.live(), "seq": s.seq(),
		"buckets": s.ix.NumBuckets(), "tombstones": s.ix.Tombstones()}
}

func (s *dynamicShard) close() error {
	if v, ok := s.ix.(closer); ok {
		if err := v.Close(); err != nil {
			return fmt.Errorf("serve: closing shard %d: %w", s.id, err)
		}
	}
	return nil
}
