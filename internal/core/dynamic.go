package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"kwsc/internal/dataset"
	"kwsc/internal/geom"
)

// DynamicORPKW maintains an ORP-KW index under insertions and deletions via
// the logarithmic method of Bentley and Saxe. The paper's structures are
// static; range-reporting-with-keywords is a decomposable search problem
// (the answer over a union of parts is the union of the answers), so the
// classic transformation applies: objects live in O(log n) static ORPKW
// indexes of doubling sizes plus a small linear buffer, insertions trigger
// binary-counter merges, and deletions are tombstones purged at rebuilds.
//
// A merge gathers columns only; the static index over a bucket is built
// once, when a query first reads the bucket — or right away by the merge that
// installs it, when a query has read the index since the previous merge. A
// write burst no query sees (seeding, WAL replay) therefore indexes nothing,
// and under steady reads the amortized insertion cost is O(log n)
// static-build work per object as in the classic method. A query costs the
// sum over the O(log n) parts, preserving the O(N^{1-1/k} (1 + OUT^{1/k}))
// shape up to a logarithmic factor.
//
// Objects are identified by stable handles assigned at insertion; reported
// results carry handles, not positional ids (positions change at merges).
//
// # Concurrency
//
// The index is safe for any number of concurrent readers alongside its
// (internally serialized) writers, and reads never block on writes: all
// mutable state lives in an immutable dynState value published through an
// atomic pointer. A mutator — serialized on the writer mutex — builds the
// successor state off to the side (buckets are immutable entry sets, so a
// merge reuses them wholesale) and installs it with a single atomic store;
// a query loads the pointer once and runs entirely against that consistent
// snapshot, so it can never observe a half-applied mutation. SnapshotNow
// pins a state explicitly for repeatable reads. See DESIGN.md §13 for the
// publication protocol and the memory-ordering argument.
type DynamicORPKW struct {
	k, dim    int
	bufferCap int
	fam       family
	bopts     BuildOpts // construction options for bucket rebuilds

	// state is the current published snapshot; readers Load it exactly once
	// per operation and never write it.
	state atomic.Pointer[dynState]

	// mu serializes mutators (Insert/Delete/SetJournal/SetSeq and recovery
	// bulk-loads). It is never taken on the query path.
	mu      sync.Mutex
	journal Journal

	// read records that a query has read the index since the previous merge;
	// a merge that finds it set builds the bucket it installs right away, so
	// steady traffic keeps builds on the write path (see installInto).
	read atomic.Bool

	// builds and buildEntries count bucket builds and the entries they
	// indexed, so tests can pin when builds happen.
	builds, buildEntries atomic.Int64
}

// dynState is one immutable version of the index. Every field is frozen at
// publication: successor states copy what they change (the bucket slice, the
// tombstone set) and share the rest. Readers therefore see either the state
// before a mutation or the state after it, never a mix. The buffer is the one
// slice appended in place: a state reads only the entries below its own len,
// and every state sharing a backing array was published with a len no larger
// than the current one's, so the slot at len is the writer's alone.
type dynState struct {
	buffer  []dynEntry   // unindexed recent inserts (append-only below len)
	buckets []*dynBucket // buckets[i] holds at most bufferCap<<i entries
	deleted *tombSet     // tombstoned handles still present in buckets or base

	// base is an optional immutable bottom layer served out-of-core (a
	// paged checkpoint opened in place); it has no liveness knowledge, so
	// the query filters its hits by deleted. It is shared by every successor
	// state for the process lifetime: merges never fold it in, deletions of
	// its entries stay tombstones, and baseTombs counts them so compaction
	// triggers only on the purgeable (bucket-resident) tombstones.
	base      *PagedBase
	baseTombs int

	nextHandle int64
	live       int

	// seq is the number of mutations applied to reach this state. When a
	// Journal is attached it equals the WAL sequence number of the last
	// acknowledged record included in this state (recovery aligns the base
	// via SetSeq), which is what pins MVCC snapshot reads to an acked-WAL
	// prefix.
	seq uint64
}

func (st *dynState) numBuckets() int {
	c := 0
	for _, b := range st.buckets {
		if b != nil {
			c++
		}
	}
	return c
}

// tombSet is an immutable set of tombstoned handles: a shared base map plus
// a short overlay of recent additions. with() copies only the overlay, so a
// copy-on-write delete costs O(tombOverlayCap) instead of O(tombstones);
// when the overlay fills it folds into a fresh base map, amortizing the full
// copy over tombOverlayCap deletes. A nil *tombSet is the empty set.
type tombSet struct {
	base    map[int64]struct{} // shared across states; never mutated
	overlay []int64            // additions since base was built; small
}

const tombOverlayCap = 32

func (t *tombSet) has(h int64) bool {
	if t == nil {
		return false
	}
	for _, x := range t.overlay {
		if x == h {
			return true
		}
	}
	_, ok := t.base[h]
	return ok
}

func (t *tombSet) size() int {
	if t == nil {
		return 0
	}
	return len(t.base) + len(t.overlay)
}

// with returns the set plus h. h must not already be a member (callers check
// has first); membership is kept disjoint between base and overlay so size
// stays a plain sum.
func (t *tombSet) with(h int64) *tombSet {
	if t == nil {
		return &tombSet{overlay: []int64{h}}
	}
	if len(t.overlay) < tombOverlayCap {
		ov := make([]int64, len(t.overlay)+1)
		copy(ov, t.overlay)
		ov[len(t.overlay)] = h
		return &tombSet{base: t.base, overlay: ov}
	}
	m := make(map[int64]struct{}, len(t.base)+len(t.overlay)+1)
	for k := range t.base {
		m[k] = struct{}{}
	}
	for _, x := range t.overlay {
		m[x] = struct{}{}
	}
	m[h] = struct{}{}
	return &tombSet{base: m}
}

// materialize returns a fresh mutable copy of the set, for merge-time
// purging. Mutating the copy never affects published states. The empty set
// copies to a nil map, which purging only reads and deletes from.
func (t *tombSet) materialize() map[int64]struct{} {
	if t == nil {
		return nil
	}
	m := make(map[int64]struct{}, t.size())
	for k := range t.base {
		m[k] = struct{}{}
	}
	for _, x := range t.overlay {
		m[x] = struct{}{}
	}
	return m
}

// tombSetFrom wraps an already-private map (built by materialize and pruned)
// as an immutable set; ownership of m transfers to the set.
func tombSetFrom(m map[int64]struct{}) *tombSet {
	if len(m) == 0 {
		return nil
	}
	return &tombSet{base: m}
}

// Journal receives every mutation before it is applied, so a durability
// layer can make the operation recoverable first. A non-nil error vetoes the
// mutation: the index stays unchanged and the error is returned to the
// caller — an op is acknowledged only after its journal write succeeded.
// The hooks run synchronously on the mutating goroutine, under the writer
// mutex, strictly before the successor state is published.
type Journal interface {
	// LogInsert records the insertion of obj under the given (already
	// assigned) stable handle.
	LogInsert(handle int64, obj dataset.Object) error
	// LogDelete records the deletion of the given live handle.
	LogDelete(handle int64) error
}

// SetJournal installs (or, with nil, removes) the mutation journal. It is
// meant to be called once, right after construction or recovery, before the
// index takes writes.
func (d *DynamicORPKW) SetJournal(j Journal) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.journal = j
}

type dynEntry struct {
	handle int64
	obj    dataset.Object
}

// dynBucket is one static part: an entry set — handles[i], strictly
// ascending, names object i of objs — and the static index over it, built at
// most once by index. Merges, deletes and Entries read only the columns, so
// they never build. The columns are immutable and the index is safe for
// concurrent readers, so buckets are shared freely across states.
type dynBucket struct {
	handles []int64
	objs    *dataset.Dataset

	once  sync.Once
	built atomic.Bool // set once the build has run, whatever its outcome
	ix    *ORPKW      // the one build's index; nil when it failed
	err   error       // the build's error, or its panic as a *PanicError
}

// index returns the bucket's static index, building it on the first call;
// concurrent callers wait for that one build. A build that fails or panics
// leaves its error on the bucket, and every later call returns that error.
// The build takes no query policy: a deadline or budget stops the traversal
// that follows, never the build, whose index every later read reuses.
func (d *DynamicORPKW) index(b *dynBucket) (*ORPKW, error) {
	b.once.Do(func() {
		defer b.built.Store(true)
		defer func() {
			if r := recover(); r != nil {
				b.ix, b.err = nil, newPanicError("DynamicORPKW.index", r, fmt.Sprintf("bucket of %d entries", len(b.handles)))
			}
		}()
		d.builds.Add(1)
		d.buildEntries.Add(int64(len(b.handles)))
		if b.err = failpointError(FPDynamicBuild); b.err != nil {
			return
		}
		// Bucket indexes are internal parts: built untagged so a dynamic
		// query is counted once, under the dynamic family.
		b.ix, b.err = buildORPKW(b.objs, d.k, d.bopts.inner())
	})
	return b.ix, b.err
}

// has finds a handle as PagedBase.Has does, by binary search.
func (b *dynBucket) has(h int64) bool {
	_, ok := slices.BinarySearch(b.handles, h)
	return ok
}

// entryCols gathers (handle, object) pairs straight into the four columns of
// an entry set, skipping the handles dead accepts (nil keeps everything).
type entryCols struct {
	dim      int
	dead     func(int64) bool
	handles  []int64
	points   []float64
	docStart []int64
	docWords []dataset.Keyword
}

func (c *entryCols) add(h int64, p geom.Point, doc []dataset.Keyword) {
	if len(c.docStart) == 0 {
		c.docStart = append(c.docStart, 0)
	}
	c.handles = append(c.handles, h)
	c.points = append(c.points, p...)
	c.docWords = append(c.docWords, doc...)
	c.docStart = append(c.docStart, int64(len(c.docWords)))
}

// grow makes room for n more entries holding words document words in all;
// it allocates nothing where an earlier grow made room already.
func (c *entryCols) grow(n, words int) {
	c.handles = slices.Grow(c.handles, n)
	c.points = slices.Grow(c.points, n*c.dim)
	if len(c.docStart) == 0 {
		n++ // the leading 0
	}
	c.docStart = slices.Grow(c.docStart, n)
	c.docWords = slices.Grow(c.docWords, words)
}

// addSet appends the live entries of one entry set (objs nil when empty).
func (c *entryCols) addSet(handles []int64, objs *dataset.Dataset) {
	if objs != nil {
		c.grow(len(handles), int(objs.N()))
	}
	for i, h := range handles {
		if c.dead == nil || !c.dead(h) {
			c.add(h, objs.Point(int32(i)), objs.Doc(int32(i)))
		}
	}
}

// addParts appends buckets and then the write buffer — oldest first, since a
// higher slot holds older entries than a lower one and the buffer is the
// newest part. The columns are sized for every part up front, so a carry
// allocates each of them once.
func (c *entryCols) addParts(buckets []*dynBucket, buffer []dynEntry) {
	n, words := len(buffer), 0
	for _, b := range buckets {
		if b != nil {
			n += len(b.handles)
			words += int(b.objs.N())
		}
	}
	for i := range buffer {
		words += len(buffer[i].obj.Doc)
	}
	c.grow(n, words)
	for i := len(buckets) - 1; i >= 0; i-- {
		if b := buckets[i]; b != nil {
			c.addSet(b.handles, b.objs)
		}
	}
	for i := range buffer {
		c.add(buffer[i].handle, buffer[i].obj.Point, buffer[i].obj.Doc)
	}
}

// finish returns the gathered entry set (nil, nil when empty). Gathering
// oldest-first leaves the handles ascending already; the permutation is the
// fallback for a merge that cascaded into an older bucket.
func (c *entryCols) finish() ([]int64, *dataset.Dataset, error) {
	if len(c.handles) == 0 {
		return nil, nil, nil
	}
	if !slices.IsSorted(c.handles) {
		perm := make([]int32, len(c.handles))
		for i := range perm {
			perm[i] = int32(i)
		}
		slices.SortFunc(perm, func(a, b int32) int { return cmp.Compare(c.handles[a], c.handles[b]) })
		sorted := entryCols{dim: c.dim}
		sorted.grow(len(c.handles), len(c.docWords))
		for _, i := range perm {
			lo, hi := c.docStart[i], c.docStart[i+1]
			sorted.add(c.handles[i], c.points[int(i)*c.dim:(int(i)+1)*c.dim], c.docWords[lo:hi])
		}
		*c = sorted
	}
	objs, err := dataset.FromColumns(c.dim, c.points, c.docStart, c.docWords)
	if err != nil {
		return nil, nil, err
	}
	return c.handles, objs, nil
}

// NewDynamicORPKW creates an empty dynamic index for k-keyword queries over
// d-dimensional points. bufferCap tunes the unindexed write buffer
// (0 selects 64).
func NewDynamicORPKW(dim, k, bufferCap int, opts ...BuildOption) (*DynamicORPKW, error) {
	if k < 2 {
		return nil, fmt.Errorf("core: k >= 2 required, got %d", k)
	}
	if dim < 1 {
		return nil, fmt.Errorf("core: dimension >= 1 required, got %d", dim)
	}
	if bufferCap <= 0 {
		bufferCap = 64
	}
	o := resolveOpts(opts)
	d := &DynamicORPKW{
		k: k, dim: dim, bufferCap: bufferCap,
		fam: o.famFor(famDynamic), bopts: o,
	}
	d.state.Store(&dynState{})
	return d, nil
}

// publish installs ns as the current state — the single atomic commit point
// of every mutation — and pushes structural gauge deltas computed against
// prev, the state the mutator started from. The writer mutex makes prev the
// currently published state, so concurrent publications cannot double-count:
// every delta is new-minus-published, applied exactly once, in publication
// order.
func (d *DynamicORPKW) publish(prev, ns *dynState) {
	d.state.Store(ns)
	if d.fam == famNone {
		return
	}
	dynPublishes.Inc()
	dynBuckets.Add(int64(ns.numBuckets() - prev.numBuckets()))
	dynLive.Add(int64(ns.live - prev.live))
	dynBuffered.Add(int64(len(ns.buffer) - len(prev.buffer)))
	dynTombstones.Add(int64(ns.deleted.size() - prev.deleted.size()))
}

// Len returns the number of live objects.
func (d *DynamicORPKW) Len() int { return d.state.Load().live }

// K returns the query keyword arity.
func (d *DynamicORPKW) K() int { return d.k }

// NextHandle returns the handle the next insertion will be assigned.
func (d *DynamicORPKW) NextHandle() int64 { return d.state.Load().nextHandle }

// Tombstones returns the number of deleted-but-unpurged bucket entries
// (exposed for the compaction regression tests and instrumentation).
func (d *DynamicORPKW) Tombstones() int { return d.state.Load().deleted.size() }

// Seq returns the mutation sequence number of the published state: the
// count of applied mutations or, with a journal attached, the WAL sequence
// of the last acknowledged record visible to new queries.
func (d *DynamicORPKW) Seq() uint64 { return d.state.Load().seq }

// SetSeq aligns the published state's sequence number with an external
// journal's numbering without touching the data. Recovery calls it between
// restoring a checkpoint (whose entries correspond to the checkpoint's
// LastSeq, not to the restore-time mutation count) and replaying the log,
// before the index takes writes or serves queries.
func (d *DynamicORPKW) SetSeq(seq uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.state.Load()
	if st.seq == seq {
		return
	}
	ns := *st
	ns.seq = seq
	d.publish(st, &ns)
}

// Insert adds an object and returns its stable handle.
func (d *DynamicORPKW) Insert(obj dataset.Object) (int64, error) {
	if len(obj.Point) != d.dim {
		return 0, fmt.Errorf("core: object dimension %d, index dimension %d", len(obj.Point), d.dim)
	}
	if len(obj.Doc) == 0 {
		return 0, fmt.Errorf("core: object with empty document")
	}
	if err := dataset.ValidatePoint(obj.Point); err != nil {
		return 0, fmt.Errorf("core: object at %v has a %v", obj.Point, err)
	}
	// The document copy is normalized (sorted, de-duplicated) immediately —
	// not deferred to the first merge — so the buffer, the journal, and the
	// bucket datasets all see the same canonical form.
	cp := dataset.Object{
		Point: obj.Point.Clone(),
		Doc:   dataset.NormalizeDoc(append([]dataset.Keyword(nil), obj.Doc...)),
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.state.Load()
	h := st.nextHandle
	// The entry goes into the slot at the buffer's len, which no published
	// state reads (see dynState): a vetoed insert leaves it for the next one
	// to overwrite.
	buf := st.buffer
	if buf == nil {
		buf = make([]dynEntry, 0, d.bufferCap)
	}
	buf = append(buf, dynEntry{handle: h, obj: cp})
	if d.journal != nil {
		if err := d.journal.LogInsert(h, cp); err != nil {
			return 0, err
		}
	}
	ns := &dynState{
		buffer: buf, buckets: st.buckets, deleted: st.deleted,
		base: st.base, baseTombs: st.baseTombs,
		nextHandle: h + 1, live: st.live + 1, seq: st.seq + 1,
	}
	if d.fam != famNone {
		dynInserts.Inc()
	}
	// The op is journaled, so it must become visible even if the merge it
	// triggers fails gathering: publish the carried state on success, the
	// plain buffered state otherwise (mirroring recovery, which replays the
	// record into a buffer append and is free to merge later).
	var carryErr error
	if len(ns.buffer) >= d.bufferCap {
		if merged, err := d.carried(ns); err != nil {
			carryErr = err
		} else {
			ns = merged
		}
	}
	d.publish(st, ns)
	if carryErr != nil {
		return 0, carryErr
	}
	return h, nil
}

// Delete removes the object with the given handle. Deleting an unknown or
// already-deleted handle returns false.
func (d *DynamicORPKW) Delete(handle int64) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.state.Load()
	if handle < 0 || handle >= st.nextHandle {
		return false, nil
	}
	if st.deleted.has(handle) {
		return false, nil
	}
	// Locate the handle first — in the buffer, the base, or some bucket —
	// so the journal only ever records deletions of live handles.
	bufIdx := -1
	for i := range st.buffer {
		if st.buffer[i].handle == handle {
			bufIdx = i
			break
		}
	}
	inBase := false
	if bufIdx < 0 {
		if st.base != nil && st.base.Has(handle) {
			inBase = true
		} else if !slices.ContainsFunc(st.buckets, func(b *dynBucket) bool { return b != nil && b.has(handle) }) {
			return false, nil
		}
	}
	if d.journal != nil {
		if err := d.journal.LogDelete(handle); err != nil {
			return false, err
		}
	}
	ns := &dynState{
		buffer: st.buffer, buckets: st.buckets, deleted: st.deleted,
		base: st.base, baseTombs: st.baseTombs,
		nextHandle: st.nextHandle, live: st.live - 1, seq: st.seq + 1,
	}
	if bufIdx >= 0 {
		// Removal shifts entries a published state reads, so it copies, with
		// room for the inserts that follow.
		buf := make([]dynEntry, 0, d.bufferCap)
		buf = append(buf, st.buffer[:bufIdx]...)
		buf = append(buf, st.buffer[bufIdx+1:]...)
		ns.buffer = buf
	} else {
		ns.deleted = st.deleted.with(handle)
		if inBase {
			ns.baseTombs++
		}
	}
	if d.fam != famNone {
		dynDeletes.Inc()
	}
	// Compact when purgeable tombstones exceed half the live count: merges
	// only purge the buckets they touch, so without this trigger a
	// delete-heavy workload leaks tombstones (and their map memory)
	// indefinitely. Base tombstones are excluded — the base is immutable, a
	// rebuild can never retire them, and counting them would re-trigger
	// compaction forever. The delete itself is journaled and must stick, so
	// a failed compaction publishes the uncompacted state and surfaces the
	// error alongside ok=true.
	var rebErr error
	if 2*(ns.deleted.size()-ns.baseTombs) > ns.live {
		if rb, err := d.rebuilt(ns); err != nil {
			rebErr = err
		} else {
			ns = rb
		}
	}
	d.publish(st, ns)
	return true, rebErr
}

// carried returns the successor of st after a binary-counter merge: the full
// buffer plus the maximal run of occupied buckets, purged of tombstones,
// installed at the smallest slot whose capacity fits. st is not modified.
func (d *DynamicORPKW) carried(st *dynState) (*dynState, error) {
	if d.fam != famNone {
		dynCarries.Inc()
	}
	buckets := append([]*dynBucket(nil), st.buckets...)
	slot := 0
	for slot < len(buckets) && buckets[slot] != nil {
		slot++
	}
	tombs := st.deleted.materialize()
	c := d.purging(tombs)
	c.addParts(buckets[:slot], st.buffer)
	clear(buckets[:slot])
	ns := &dynState{
		buckets: buckets, base: st.base, baseTombs: st.baseTombs,
		nextHandle: st.nextHandle, live: st.live, seq: st.seq,
	}
	if err := d.installInto(ns, c, slot); err != nil {
		return nil, err
	}
	ns.deleted = tombSetFrom(tombs)
	return ns, nil
}

// rebuilt returns the successor of st with everything merged into a single
// bucket and every tombstone purged. st is not modified.
func (d *DynamicORPKW) rebuilt(st *dynState) (*dynState, error) {
	if d.fam != famNone {
		dynRebuilds.Inc()
	}
	tombs := st.deleted.materialize()
	c := d.purging(tombs)
	c.addParts(st.buckets, st.buffer)
	ns := &dynState{
		base: st.base, baseTombs: st.baseTombs,
		nextHandle: st.nextHandle, live: st.live, seq: st.seq,
	}
	if err := d.installInto(ns, c, 0); err != nil {
		return nil, err
	}
	// Every purgeable tombstone names a bucket entry and every bucket was
	// merged, so the purge consumed all but the base tombstones (the base is
	// immutable: those survive every rebuild).
	ns.deleted = tombSetFrom(tombs)
	return ns, nil
}

// purging returns an empty gatherer that drops tombstoned entries, consuming
// the matched handles from tombs (a private copy, never a published set).
func (d *DynamicORPKW) purging(tombs map[int64]struct{}) *entryCols {
	return &entryCols{dim: d.dim, dead: func(h int64) bool {
		_, gone := tombs[h]
		delete(tombs, h)
		return gone
	}}
}

// installInto places the gathered entries in the smallest slot >= minSlot of
// ns.buckets whose capacity bufferCap<<slot holds them, growing the bucket
// slice as needed, and builds the new bucket's index when a query has read
// the index since the previous merge (otherwise its first reader builds it).
// ns must be an unpublished state under construction whose buckets slice is
// privately owned. The only error is from gathering the columns.
func (d *DynamicORPKW) installInto(ns *dynState, c *entryCols, minSlot int) error {
	slot := d.slotFor(len(c.handles), minSlot)
	// The target slot may be occupied when a purge shrank a merge below its
	// natural size; cascade upward.
	for slot < len(ns.buckets) && ns.buckets[slot] != nil {
		c.addSet(ns.buckets[slot].handles, ns.buckets[slot].objs)
		ns.buckets[slot] = nil
		slot = d.slotFor(len(c.handles), slot)
	}
	handles, objs, err := c.finish()
	if err != nil || objs == nil {
		return err
	}
	b := installBucket(ns, slot, handles, objs)
	// A query has read since the previous merge: build now, under the writer
	// mutex, so the reads that follow find the index ready. A failed build
	// stays on the bucket for its readers; the merge itself succeeded.
	if d.read.Swap(false) {
		d.index(b)
	}
	return nil
}

// slotFor returns the smallest slot >= minSlot whose capacity holds n entries.
func (d *DynamicORPKW) slotFor(n, minSlot int) int {
	slot := minSlot
	for d.bufferCap<<slot < n {
		slot++
	}
	return slot
}

// installBucket stores an entry set — whose columns become the bucket's own —
// in ns.buckets[slot], unbuilt, and returns the bucket.
func installBucket(ns *dynState, slot int, handles []int64, objs *dataset.Dataset) *dynBucket {
	for len(ns.buckets) <= slot {
		ns.buckets = append(ns.buckets, nil)
	}
	b := &dynBucket{handles: handles, objs: objs}
	ns.buckets[slot] = b
	return b
}

// Query reports (handle, object) for every live object in q whose document
// contains all k keywords. The policy's deadline, node
// budget and cancellation channel span the write-buffer scan and every
// Bentley–Saxe bucket (buffer entries charge the node budget per scanned
// entry); a violation returns the partial results reported so far with a
// typed error. Limit counts live results: once that many are reported the
// part being traversed ends and the remaining parts are skipped.
//
// The query runs lock-free against the state published when it started;
// mutations that land mid-query are not observed, in whole or in part. The
// first query to reach a bucket builds its index (later readers of it wait
// for that build), and the policy does not bound the build: a deadline or
// budget stops the traversal after it. A bucket whose build failed returns
// the build's error to every query that reaches it.
func (d *DynamicORPKW) Query(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts, report func(handle int64, obj *dataset.Object)) (QueryStats, error) {
	return d.queryState(d.state.Load(), q, ws, opts, report)
}

// queryState runs one query entirely against the snapshot sn. The query is
// validated, observed and guarded against panics once, and runs every part
// through one pooled context.
func (d *DynamicORPKW) queryState(sn *dynState, q *geom.Rect, ws []dataset.Keyword, opts QueryOpts, report func(handle int64, obj *dataset.Object)) (st QueryStats, err error) {
	qt := obsBegin(d.fam)
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError("DynamicORPKW.Query", r, echoRegion(q, ws))
		}
		if obsEnd(d.fam, qt, &st, err) {
			obsSpan(d.fam, "Query", echoRegion(q, ws), d.k, qt, &st, err)
		}
	}()
	if len(ws) != d.k {
		return QueryStats{}, fmt.Errorf("%w: query carries %d keywords but the index was built for k=%d", ErrInvalidQuery, len(ws), d.k)
	}
	if err := dataset.ValidateKeywords(ws); err != nil {
		return QueryStats{}, fmt.Errorf("%w: %v", ErrInvalidQuery, err)
	}
	if err := validateRect(q, d.dim); err != nil {
		return QueryStats{}, err
	}
	if !d.read.Load() { // a load first: steady reads never write the line
		d.read.Store(true)
	}
	qc := newQctx(ws, opts)
	st, err = d.queryParts(sn, qc, q, report)
	putQctx(qc)
	return st, err
}

// queryParts runs the parts of sn in order — the write buffer, the base,
// every bucket — with qc's one policy state, whose clock polls span the
// parts. A part's node budget is what the work before it left over
// (ExecPolicy.shrunk), and its Limit the live results still wanted.
func (d *DynamicORPKW) queryParts(sn *dynState, qc *qctx, q *geom.Rect, report func(handle int64, obj *dataset.Object)) (st QueryStats, err error) {
	opts := qc.opts
	full := func() bool {
		if opts.Limit > 0 && st.Reported >= opts.Limit {
			st.Truncated = true
			return true
		}
		return false
	}
	// Buffer: linear scan (bounded by bufferCap).
	for i := range sn.buffer {
		e := &sn.buffer[i]
		st.Ops++
		if err := qc.pst.check(&st, st.Ops); err != nil {
			return st, err
		}
		if q.ContainsPoint(e.obj.Point) && dataset.DocHasAll(e.obj.Doc, qc.ws) {
			if full() {
				return st, nil
			}
			report(e.handle, &e.obj)
			st.Reported++
		}
	}
	// Base: the paged checkpoint layer, with tombstones filtered here (the
	// base has no liveness knowledge); a tombstoned hit does not count.
	if sn.base != nil {
		if full() {
			return st, nil
		}
		bopts := QueryOpts{Limit: max(opts.Limit-st.Reported, 0), Policy: opts.Policy.shrunk(st.Ops)}
		bst, berr := sn.base.Query(q, qc.ws, bopts, func(h int64, obj *dataset.Object) bool {
			if sn.deleted.has(h) {
				return false
			}
			report(h, obj)
			return true
		})
		st.add(bst)
		if berr != nil {
			return st, berr
		}
	}
	// Buckets: each entered through ORPKW.run, its hits reported as handles
	// by qc.part.
	qc.part = dynPart{deleted: sn.deleted, report: report}
	for _, b := range sn.buckets {
		if b == nil {
			continue
		}
		failpoint(FPDynamicBucket)
		if full() {
			return st, nil
		}
		ix, err := d.index(b)
		if err != nil {
			return st, err
		}
		qc.part.b = b
		qc.opts.Limit = max(opts.Limit-st.Reported, 0)
		qc.pst.pol = opts.Policy.shrunk(st.Ops)
		ix.run(qc, q)
		st.add(qc.st)
		if qc.stopErr != nil {
			return st, qc.stopErr
		}
	}
	full()
	return st, nil
}

// dynPart is what a query context carries while it runs one bucket of a
// dynamic query: the bucket, whose ids it reports as handles, the state's
// tombstones, the caller's report, and the scratch Object a hit is reported
// through — its Point and Doc views of the bucket's columns, the contract
// PagedBase.Query documents.
type dynPart struct {
	b       *dynBucket
	deleted *tombSet
	report  func(handle int64, obj *dataset.Object)
	obj     dataset.Object
}

// emit reports the bucket's object id unless it is tombstoned; false means
// it was dropped.
func (p *dynPart) emit(id int32) bool {
	h := p.b.handles[id]
	if p.deleted.has(h) {
		return false
	}
	p.obj.Point, p.obj.Doc = p.b.objs.Point(id), p.b.objs.Doc(id)
	p.report(h, &p.obj)
	return true
}

// Buckets returns the occupancy pattern (entry counts per slot), exposed for
// tests and instrumentation of the logarithmic structure.
func (d *DynamicORPKW) Buckets() []int {
	st := d.state.Load()
	out := make([]int, len(st.buckets))
	for i, b := range st.buckets {
		if b != nil {
			out[i] = len(b.handles)
		}
	}
	return out
}

// NumBuckets returns the number of occupied static parts; O(log n) by the
// binary-counter invariant.
func (d *DynamicORPKW) NumBuckets() int {
	return d.state.Load().numBuckets()
}

// DynSnapshot is an immutable point-in-time view of a DynamicORPKW, pinned
// by SnapshotNow. Queries against it are repeatable — they see exactly the
// mutations applied up to Seq(), no matter how much churn lands afterwards —
// and cost nothing to hold beyond the memory of the pinned state (which the
// garbage collector reclaims once the snapshot is dropped and merges have
// superseded its buckets). With a journal attached, Seq() is the WAL
// sequence of the last acknowledged record the view includes, so a pinned
// query reads exactly the acked-WAL prefix at that seq.
type DynSnapshot struct {
	d  *DynamicORPKW
	st *dynState
}

// SnapshotNow pins the currently published state for repeatable reads.
func (d *DynamicORPKW) SnapshotNow() *DynSnapshot {
	if d.fam != famNone {
		dynSnapshotPins.Inc()
	}
	return &DynSnapshot{d: d, st: d.state.Load()}
}

// Seq returns the sequence number the view is pinned to.
func (s *DynSnapshot) Seq() uint64 { return s.st.seq }

// Len returns the number of live objects in the view.
func (s *DynSnapshot) Len() int { return s.st.live }

// NumBuckets returns the occupied static parts of the view.
func (s *DynSnapshot) NumBuckets() int { return s.st.numBuckets() }

// Tombstones returns the deleted-but-unpurged entry count of the view.
func (s *DynSnapshot) Tombstones() int { return s.st.deleted.size() }

// Query reports (handle, object) for every object live at the pinned seq in
// q whose document contains all k keywords; opts as in DynamicORPKW.Query.
func (s *DynSnapshot) Query(q *geom.Rect, ws []dataset.Keyword, opts QueryOpts, report func(handle int64, obj *dataset.Object)) (QueryStats, error) {
	if s.d.fam != famNone {
		dynSnapStaleness.Observe(int64(s.d.state.Load().seq - s.st.seq))
	}
	return s.d.queryState(s.st, q, ws, opts, report)
}

// Entries returns the entry set live at the pinned seq: handles strictly
// ascending, handles[i] naming object i of objs (nil when nothing is live).
// The columns are freshly gathered and owned by the caller. With a paged
// base attached the base file is read in full, which can fail (I/O,
// checksum) — hence the error.
func (s *DynSnapshot) Entries() (handles []int64, objs *dataset.Dataset, err error) {
	st := s.st
	c := &entryCols{dim: s.d.dim, dead: st.deleted.has}
	if st.base != nil {
		bh, bobjs, berr := st.base.entries()
		if berr != nil {
			return nil, nil, berr
		}
		c.addSet(bh, bobjs)
	}
	c.addParts(st.buckets, st.buffer)
	return c.finish()
}

// RestoreDynamicORPKW restores a dynamic index from a durability snapshot:
// the entry set a checkpoint stores (handles strictly ascending beside objs,
// nil when empty) plus the next-handle watermark, which must exceed every
// handle so that handles assigned after recovery never collide with restored
// ones. The set becomes one bucket as it stands — the state a full rebuild
// produces, indexed by the first query that reads it — and objs must not be
// written to afterwards. Use SetSeq to align the sequence number with the
// snapshot's journal position.
func RestoreDynamicORPKW(dim, k, bufferCap int, handles []int64, objs *dataset.Dataset, nextHandle int64, opts ...BuildOption) (*DynamicORPKW, error) {
	d, err := NewDynamicORPKW(dim, k, bufferCap, opts...)
	if err != nil {
		return nil, err
	}
	n, odim := 0, dim
	if objs != nil {
		n, odim = objs.Len(), objs.Dim()
	}
	if n != len(handles) || odim != dim {
		return nil, fmt.Errorf("core: snapshot has %d handles for %d objects of dimension %d, index dimension %d",
			len(handles), n, odim, dim)
	}
	prev := int64(-1)
	for _, h := range handles {
		if h <= prev || h >= nextHandle {
			return nil, fmt.Errorf("core: snapshot handle %d out of order or outside [0, %d)", h, nextHandle)
		}
		prev = h
	}
	st := &dynState{nextHandle: nextHandle, live: n}
	if n > 0 {
		installBucket(st, d.slotFor(n, 0), handles, objs)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.publish(d.state.Load(), st)
	return d, nil
}

// RestoreDynamicORPKWFromBase builds a dynamic index whose bottom layer is
// an already-open paged checkpoint, without decoding a single entry: the
// base serves its objects in place, new writes land in the buffer/buckets
// above it, and deletions of base entries become permanent tombstones. The
// base's entry count and handle watermark must come from its own validated
// metadata (the caller — recovery — passes them through).
func RestoreDynamicORPKWFromBase(dim, k, bufferCap int, base *PagedBase, nextHandle int64, opts ...BuildOption) (*DynamicORPKW, error) {
	if base == nil {
		return nil, fmt.Errorf("core: nil base index")
	}
	d, err := NewDynamicORPKW(dim, k, bufferCap, opts...)
	if err != nil {
		return nil, err
	}
	st := &dynState{base: base, live: base.Len(), nextHandle: nextHandle}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.publish(d.state.Load(), st)
	return d, nil
}

// Base returns the immutable bottom layer, or nil. The durability layer
// uses it to close the base's file reference on shutdown.
func (d *DynamicORPKW) Base() *PagedBase { return d.state.Load().base }
