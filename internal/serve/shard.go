package serve

import (
	"errors"
	"fmt"
	"math"
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
}

// estimateRemote is the work estimate of a leg that may block on the network:
// never cheaper than a wake-up.
const estimateRemote = math.MaxInt64

// estimator prices a query for ws in work units (QueryStats.Ops) from the
// index's resident structures; kwsc.Degraded, DynamicORPKW and DurableORPKW
// all carry it.
type estimator interface {
	EstimateWork(ws []kwsc.Keyword) int64
}

// shard is one partition of the served dataset. Implementations must be
// safe for concurrent use; collect must return ids ascending, appended into
// buf when the leg is answered locally. req is the original wire request,
// carried so replica groups can forward the leg to a remote process; local
// shards answer from the parsed arguments alone. estimate prices the leg in
// work units (QueryStats.Ops) before it runs, from resident structures alone
// — no allocation, no traversal.
type shard interface {
	estimate(ws []kwsc.Keyword, staleness time.Duration) int64
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

// staticIndex is what a static shard serves from.
type staticIndex interface {
	kwsc.Index[*kwsc.Rect]
	estimator
}

// staticShard serves a read-only partition through the unified Index
// surface — any rectangle-capable family works; the server builds a
// *kwsc.Degraded so overload-mode node budgets degrade to the baseline
// instead of failing.
type staticShard struct {
	ix      staticIndex // nil for an empty partition
	ds      *kwsc.Dataset
	globals []int64 // local id -> global id
}

func (s *staticShard) estimate(ws []kwsc.Keyword, _ time.Duration) int64 {
	if s.ix == nil {
		return 0
	}
	return s.ix.EstimateWork(ws)
}

func (s *staticShard) collect(_ *kwsc.QueryRequest, q *kwsc.Rect, exact kwsc.Region, ws []kwsc.Keyword, opts kwsc.QueryOpts, _ time.Duration, buf *legBuf) legResult {
	if s.ix == nil {
		return legResult{}
	}
	if buf.local == nil {
		buf.local = make([]int32, 0, 64) // a nil buffer would make CollectInto allocate its result
	}
	local, st, err := s.ix.CollectInto(q, ws, opts, buf.local)
	if local != nil {
		buf.local = local
	}
	ids := buf.ids[:0]
	for _, id := range local {
		if exact != nil && !exact.ContainsPoint(s.ds.Point(id)) {
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

func (s *staticShard) live() int {
	if s.ds == nil {
		return 0
	}
	return s.ds.Len()
}

func (s *staticShard) describe() map[string]any {
	return map[string]any{"type": "static", "live": s.live()}
}

func (s *staticShard) close() error { return nil }

// Capability probes reconciling the two dynamic backends' accessor names
// (DurableORPKW: Snapshot/LastSeq; DynamicORPKW: SnapshotNow/Seq).
type (
	snapshotter    interface{ Snapshot() *kwsc.DynSnapshot }
	snapshotNower  interface{ SnapshotNow() *kwsc.DynSnapshot }
	lastSeqer      interface{ LastSeq() uint64 }
	seqer          interface{ Seq() uint64 }
	bucketCounter  interface{ NumBuckets() int }
	tombstoneCount interface{ Tombstones() int }
	closer         interface{ Close() error }
)

// dynamicIndex is what a dynamic shard serves from.
type dynamicIndex interface {
	kwsc.DynamicIndex
	estimator
}

// dynamicShard serves one partition from a mutable index (durable or
// in-memory) through the unified DynamicIndex surface. Global handles
// encode the shard id (see globalHandle) so deletes route statelessly.
type dynamicShard struct {
	id, n int
	ix    dynamicIndex
	now   func() time.Time

	// Bounded-staleness read cache: one pinned MVCC snapshot, refreshed
	// when a request's staleness bound is tighter than its age.
	mu     sync.Mutex
	snap   *kwsc.DynSnapshot
	snapAt time.Time
}

func (s *dynamicShard) pin() *kwsc.DynSnapshot {
	switch v := s.ix.(type) {
	case snapshotter:
		return v.Snapshot()
	case snapshotNower:
		return v.SnapshotNow()
	}
	return nil
}

func (s *dynamicShard) seq() uint64 {
	switch v := s.ix.(type) {
	case lastSeqer:
		return v.LastSeq()
	case seqer:
		return v.Seq()
	}
	return 0
}

// view returns the read view for a query: a cached snapshot no older than
// staleness when one is allowed and available, else a fresh pin.
func (s *dynamicShard) view(staleness time.Duration) *kwsc.DynSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	if staleness > 0 && s.snap != nil && now.Sub(s.snapAt) <= staleness {
		return s.snap
	}
	if snap := s.pin(); snap != nil {
		s.snap, s.snapAt = snap, now
		return snap
	}
	return nil
}

func (s *dynamicShard) estimate(ws []kwsc.Keyword, _ time.Duration) int64 {
	return s.ix.EstimateWork(ws)
}

func (s *dynamicShard) collect(_ *kwsc.QueryRequest, q *kwsc.Rect, exact kwsc.Region, ws []kwsc.Keyword, opts kwsc.QueryOpts, staleness time.Duration, buf *legBuf) legResult {
	buf.ids = buf.ids[:0]
	report := func(h int64, obj *kwsc.Object) {
		if exact != nil && !exact.ContainsPoint(obj.Point) {
			return
		}
		buf.ids = append(buf.ids, globalHandle(h, s.id, s.n))
	}
	var st kwsc.QueryStats
	var err error
	var seq uint64
	if snap := s.view(staleness); snap != nil {
		st, err = snap.QueryWith(q, ws, opts, report)
		seq = snap.Seq()
	} else {
		st, err = s.ix.QueryWith(q, ws, opts, report)
		seq = s.seq()
	}
	slices.Sort(buf.ids)
	return legResult{ids: buf.ids, st: st, seq: seq, err: err}
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
	d := map[string]any{"type": "dynamic", "live": s.live(), "seq": s.seq()}
	if v, ok := s.ix.(bucketCounter); ok {
		d["buckets"] = v.NumBuckets()
	}
	if v, ok := s.ix.(tombstoneCount); ok {
		d["tombstones"] = v.Tombstones()
	}
	return d
}

func (s *dynamicShard) close() error {
	if v, ok := s.ix.(closer); ok {
		if err := v.Close(); err != nil {
			return fmt.Errorf("serve: closing shard %d: %w", s.id, err)
		}
	}
	return nil
}
