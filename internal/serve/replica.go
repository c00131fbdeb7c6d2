package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kwsc"
	"kwsc/internal/core"
	"kwsc/internal/obs"
	"kwsc/internal/repl"
)

// Replica-aware serving: each dynamic shard becomes a replica group — the
// local writer plus one read leg per follower process (a kwscd started with
// -follow replaying this primary's WAL). Bounded-staleness reads fan out to
// healthy, fresh-enough replicas (round-robin), fail over past dead or
// lagging ones, optionally hedge after a latency threshold, and degrade to
// the freshest stale answer (surfaced in the response) only when nothing
// admissible survives. See DESIGN.md §16.

// FPWriterDown simulates an unavailable writer leg (tests/operations): the
// armed action may panic, which the group translates into a failed leg so
// reads fail over to replicas instead of crashing the query.
const FPWriterDown = "serve/writer-down"

var (
	failovers   = obs.Default().Counter("kwscd_failovers_total")
	hedgedReads = obs.Default().Counter("kwscd_hedged_reads_total")
	staleServed = obs.Default().Counter("kwscd_stale_served_total")
)

// serverMeta is the JSON body of GET /repl/v1/meta: what a follower or
// replica-aware peer needs to mirror this deployment.
type serverMeta struct {
	Mode      string `json:"mode"`
	Partition string `json:"partition"`
	Shards    int    `json:"shards"`
	Dim       int    `json:"dim"`
	K         int    `json:"k"`
}

// legReply is the JSON body of POST /repl/v1/shard/{i}/query: one shard's
// scatter leg executed on a single process, global ids and all.
type legReply struct {
	IDs         []int64 `json:"ids"`
	Ops         int64   `json:"ops"`
	Seq         uint64  `json:"seq"`
	Truncated   bool    `json:"truncated,omitempty"`
	FellBack    bool    `json:"fell_back,omitempty"`
	Outcome     string  `json:"outcome"`
	StalenessMs int64   `json:"staleness_ms"`
	Stale       bool    `json:"stale,omitempty"`
}

// healthReply is the JSON body of GET /repl/v1/shard/{i}/health.
type healthReply struct {
	AppliedSeq  uint64 `json:"applied_seq"`
	PrimarySeq  uint64 `json:"primary_seq"`
	StalenessMs int64  `json:"staleness_ms"`
	LastErr     string `json:"last_err,omitempty"`
}

// errFromOutcome maps a remote leg's outcome classification back onto the
// typed error vocabulary so gather treats remote and local legs identically.
func errFromOutcome(outcome string) error {
	switch outcome {
	case "", "ok":
		return nil
	case "deadline":
		return kwsc.ErrDeadline
	case "budget":
		return kwsc.ErrBudget
	case "canceled":
		return kwsc.ErrCanceled
	default:
		return fmt.Errorf("serve: remote leg outcome %q", outcome)
	}
}

// remoteLeg is one follower's view of one shard, probed for liveness and lag
// in the background. All health fields are atomics: the query path only
// reads them.
type remoteLeg struct {
	name    string // "replica-N"
	baseURL string // .../repl/v1/shard/%03d
	client  *http.Client

	lastOK      atomic.Int64 // unixnano of the last successful probe
	appliedSeq  atomic.Uint64
	stalenessMs atomic.Int64

	liveness time.Duration // probe age beyond which the leg counts as down
}

func (l *remoteLeg) alive() bool {
	t := l.lastOK.Load()
	return t != 0 && time.Since(time.Unix(0, t)) <= l.liveness
}

// probe refreshes the leg's health from its /health endpoint.
func (l *remoteLeg) probe() {
	resp, err := l.client.Get(l.baseURL + "/health")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var h healthReply
	if json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&h) != nil {
		return
	}
	l.appliedSeq.Store(h.AppliedSeq)
	l.stalenessMs.Store(h.StalenessMs)
	l.lastOK.Store(time.Now().UnixNano())
}

// query executes the leg remotely, forwarding the request bounded by the
// caller's remaining deadline.
func (l *remoteLeg) query(req *kwsc.QueryRequest, opts kwsc.QueryOpts) legResult {
	fwd := *req
	fwd.Limit = 0 // the gather applies the limit to the merged sequence
	if !opts.Policy.Deadline.IsZero() {
		remaining := time.Until(opts.Policy.Deadline)
		if remaining <= 0 {
			return legResult{err: kwsc.ErrDeadline, replica: l.name}
		}
		fwd.TimeoutMs = int64(remaining / time.Millisecond)
		if fwd.TimeoutMs == 0 {
			fwd.TimeoutMs = 1
		}
	}
	body, err := json.Marshal(&fwd)
	if err != nil {
		return legResult{err: err, replica: l.name}
	}
	resp, err := l.client.Post(l.baseURL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return legResult{err: fmt.Errorf("serve: replica leg: %w", err), replica: l.name}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return legResult{err: fmt.Errorf("serve: replica leg status %d: %s", resp.StatusCode, b), replica: l.name}
	}
	var rep legReply
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&rep); err != nil {
		return legResult{err: fmt.Errorf("serve: replica leg decode: %w", err), replica: l.name}
	}
	st := kwsc.QueryStats{Ops: rep.Ops, Truncated: rep.Truncated, Fallback: rep.FellBack}
	return legResult{
		ids: rep.IDs, st: st, seq: rep.Seq, err: errFromOutcome(rep.Outcome),
		replica: l.name, stalenessMs: rep.StalenessMs, stale: rep.Stale,
	}
}

// replicaGroup makes one shard fault-tolerant: reads fan out across the
// writer and its follower legs, writes go to the writer alone.
type replicaGroup struct {
	id         int
	writer     shard
	legs       []*remoteLeg
	rr         atomic.Uint32
	hedgeAfter time.Duration

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
}

func newReplicaGroup(id int, writer shard, legs []*remoteLeg, hedgeAfter, probeEvery time.Duration) *replicaGroup {
	g := &replicaGroup{
		id: id, writer: writer, legs: legs,
		hedgeAfter: hedgeAfter, stopProbe: make(chan struct{}),
	}
	for _, l := range legs {
		g.probeWG.Add(1)
		go func(l *remoteLeg) {
			defer g.probeWG.Done()
			l.probe()
			t := time.NewTicker(probeEvery)
			defer t.Stop()
			for {
				select {
				case <-g.stopProbe:
					return
				case <-t.C:
					l.probe()
				}
			}
		}(l)
	}
	return g
}

// writerLeg runs the local authoritative leg, translating a writer-down
// failpoint panic into a failed leg so the group can fail over.
func (g *replicaGroup) writerLeg(req *kwsc.QueryRequest, q *kwsc.Rect, exact kwsc.Region, ws []kwsc.Keyword, opts kwsc.QueryOpts, staleness time.Duration, buf *legBuf) (res legResult) {
	defer func() {
		if r := recover(); r != nil {
			res = legResult{err: fmt.Errorf("serve: writer leg down: %v", r), replica: "writer"}
		}
	}()
	core.Failpoint(FPWriterDown)
	res = g.writer.collect(req, q, exact, ws, opts, staleness, buf)
	res.replica = "writer"
	return res
}

// legFailed reports whether a leg result must trigger failover: transport or
// remote failure — NOT a typed policy stop, whose prefix is a valid answer.
func legFailed(res legResult) bool {
	if res.err == nil {
		return false
	}
	return !errors.Is(res.err, kwsc.ErrDeadline) &&
		!errors.Is(res.err, kwsc.ErrBudget) &&
		!errors.Is(res.err, kwsc.ErrCanceled)
}

// candidate is one group member a read may be served by: a remote replica
// leg, or the local writer when leg is nil.
type candidate struct {
	leg   *remoteLeg
	stale bool // serving it exceeds the requested bound
}

// estimate prices the leg: a read that may go to a replica can block on the
// network; a read only the writer may serve costs what the writer's leg costs.
func (g *replicaGroup) estimate(ws []kwsc.Keyword, staleness time.Duration) int64 {
	if staleness > 0 && len(g.legs) > 0 {
		return estimateRemote
	}
	return g.writer.estimate(ws, staleness)
}

// candidates lists, in preference order, the members that may serve a read
// under the given staleness bound. A request with no bound needs the
// acked-fresh writer — nil, the writer alone; everything else prefers
// replicas: admissible ones (alive, within the bound) in round-robin order,
// then the writer, and last the freshest alive replica regardless of lag, to
// be served flagged stale only if every admissible member failed.
func (g *replicaGroup) candidates(staleness time.Duration) []candidate {
	if staleness <= 0 || len(g.legs) == 0 {
		return nil
	}
	cands := make([]candidate, 0, len(g.legs)+2)
	start := int(g.rr.Add(1)) - 1
	var lagged *remoteLeg
	var laggedStaleness int64
	for i := range g.legs {
		l := g.legs[(start+i)%len(g.legs)]
		if !l.alive() {
			failovers.Inc()
			continue
		}
		if s := l.stalenessMs.Load(); s < 0 || time.Duration(s)*time.Millisecond > staleness {
			// Alive but beyond the bound: remember the freshest as the
			// degradation fallback.
			if lagged == nil || (s >= 0 && s < laggedStaleness) {
				lagged, laggedStaleness = l, s
			}
			continue
		}
		cands = append(cands, candidate{leg: l})
	}
	cands = append(cands, candidate{})
	if lagged != nil {
		cands = append(cands, candidate{leg: lagged, stale: true})
	}
	return cands
}

// run executes the leg on one candidate.
func (g *replicaGroup) run(c candidate, req *kwsc.QueryRequest, q *kwsc.Rect, exact kwsc.Region, ws []kwsc.Keyword, opts kwsc.QueryOpts, staleness time.Duration, buf *legBuf) legResult {
	var res legResult
	if c.leg == nil {
		res = g.writerLeg(req, q, exact, ws, opts, staleness, buf)
	} else {
		res = c.leg.query(req, opts)
	}
	if c.stale && !legFailed(res) {
		res.stale = true
		staleServed.Inc()
	}
	return res
}

// collect answers one scatter leg with failover and optional hedging over
// the group's candidates.
func (g *replicaGroup) collect(req *kwsc.QueryRequest, q *kwsc.Rect, exact kwsc.Region, ws []kwsc.Keyword, opts kwsc.QueryOpts, staleness time.Duration, buf *legBuf) legResult {
	cands := g.candidates(staleness)
	if len(cands) <= 1 {
		// The writer alone: nothing to fail over to and no hedge to arm, so
		// the leg runs on the caller's goroutine, into the caller's buffer.
		res := g.run(candidate{}, req, q, exact, ws, opts, staleness, buf)
		if legFailed(res) {
			failovers.Inc()
		}
		return res
	}

	results := make(chan legResult, len(cands))
	launched := 0
	launch := func() {
		c := cands[launched]
		launched++
		go func() {
			// A hedged or failed-over writer leg may outlive this call, so
			// it fills a buffer of its own, never the caller's pooled one.
			results <- g.run(c, req, q, exact, ws, opts, staleness, new(legBuf))
		}()
	}
	launch()
	var lastFailed legResult
	inFlight := 1
	for {
		var timer *time.Timer
		var hedge <-chan time.Time
		if g.hedgeAfter > 0 && launched < len(cands) {
			timer = time.NewTimer(g.hedgeAfter)
			hedge = timer.C
		}
		var res legResult
		hedged := false
		select {
		case res = <-results:
		case <-hedge:
			hedged = true
		}
		if timer != nil {
			timer.Stop() // per round, not per leg: a deferred Stop would keep every round's timer live until return
		}
		if hedged {
			hedgedReads.Inc()
			launch()
			inFlight++
			continue
		}
		inFlight--
		if !legFailed(res) {
			return res
		}
		failovers.Inc()
		lastFailed = res
		if launched < len(cands) {
			launch()
			inFlight++
		} else if inFlight == 0 {
			return lastFailed // every leg failed: surface the last error
		}
	}
}

func (g *replicaGroup) insert(obj kwsc.Object) (int64, uint64, error) { return g.writer.insert(obj) }
func (g *replicaGroup) remove(local int64) (bool, uint64, error)      { return g.writer.remove(local) }
func (g *replicaGroup) seq() uint64                                   { return g.writer.seq() }
func (g *replicaGroup) live() int                                     { return g.writer.live() }

func (g *replicaGroup) describe() map[string]any {
	d := g.writer.describe()
	reps := make([]map[string]any, len(g.legs))
	for i, l := range g.legs {
		reps[i] = map[string]any{
			"name": l.name, "alive": l.alive(),
			"applied_seq": l.appliedSeq.Load(), "staleness_ms": l.stalenessMs.Load(),
		}
	}
	d["replicas"] = reps
	return d
}

func (g *replicaGroup) close() error {
	close(g.stopProbe)
	g.probeWG.Wait()
	return g.writer.close()
}

// followerShard serves one shard of a read-only follower deployment from its
// continuously-replayed local index. Staleness is measured, not assumed: a
// request whose bound the follower cannot meet is still answered — the
// response says so.
type followerShard struct {
	id, n int
	f     *repl.Follower
	now   func() time.Time

	// Bounded-staleness snapshot cache (same contract as dynamicShard).
	mu     sync.Mutex
	snap   *kwsc.DynSnapshot
	snapAt time.Time
}

func (s *followerShard) view(staleness time.Duration) *kwsc.DynSnapshot {
	d := s.f.Durable()
	if d == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	if staleness > 0 && s.snap != nil && now.Sub(s.snapAt) <= staleness {
		return s.snap
	}
	snap := d.Snapshot()
	if snap != nil {
		s.snap, s.snapAt = snap, now
	}
	return snap
}

// replicationStalenessMs reports the follower's measured lag age in ms
// (-1 = never caught up).
func (s *followerShard) replicationStalenessMs() int64 {
	st := s.f.Staleness()
	if st < 0 {
		return -1
	}
	return int64(st / time.Millisecond)
}

func (s *followerShard) estimate(ws []kwsc.Keyword, _ time.Duration) int64 {
	if d := s.f.Durable(); d != nil {
		return d.EstimateWork(ws)
	}
	return 0 // no replayed state yet: the leg fails at once
}

func (s *followerShard) collect(_ *kwsc.QueryRequest, q *kwsc.Rect, exact kwsc.Region, ws []kwsc.Keyword, opts kwsc.QueryOpts, staleness time.Duration, buf *legBuf) legResult {
	snap := s.view(staleness)
	if snap == nil {
		return legResult{err: fmt.Errorf("serve: follower shard %d has no replayed state yet", s.id)}
	}
	buf.ids = buf.ids[:0]
	report := func(h int64, obj *kwsc.Object) {
		if exact != nil && !exact.ContainsPoint(obj.Point) {
			return
		}
		buf.ids = append(buf.ids, globalHandle(h, s.id, s.n))
	}
	st, err := snap.QueryWith(q, ws, opts, report)
	slices.Sort(buf.ids)
	res := legResult{ids: buf.ids, st: st, seq: snap.Seq(), err: err}
	res.stalenessMs = s.replicationStalenessMs()
	// Degradation surfaced: the answer exceeds the requested bound when the
	// replication lag alone is already older than the bound.
	if staleness > 0 && (res.stalenessMs < 0 || time.Duration(res.stalenessMs)*time.Millisecond > staleness) {
		res.stale = true
		staleServed.Inc()
	}
	return res
}

func (s *followerShard) insert(kwsc.Object) (int64, uint64, error) { return 0, 0, ErrReadOnly }
func (s *followerShard) remove(int64) (bool, uint64, error)        { return false, 0, ErrReadOnly }

func (s *followerShard) seq() uint64 {
	if d := s.f.Durable(); d != nil {
		return d.LastSeq()
	}
	return 0
}

func (s *followerShard) live() int {
	if d := s.f.Durable(); d != nil {
		return d.Len()
	}
	return 0
}

func (s *followerShard) health() healthReply {
	return healthReply{
		AppliedSeq:  s.f.AppliedSeq(),
		PrimarySeq:  s.f.PrimarySeq(),
		StalenessMs: s.replicationStalenessMs(),
		LastErr:     s.f.LastErr(),
	}
}

func (s *followerShard) describe() map[string]any {
	h := s.health()
	return map[string]any{
		"type": "follower", "live": s.live(), "applied_seq": h.AppliedSeq,
		"primary_seq": h.PrimarySeq, "staleness_ms": h.StalenessMs,
		"bootstraps": s.f.Bootstraps(),
	}
}

func (s *followerShard) close() error { return s.f.Close() }

// healther lets the health endpoint ask a shard for replication state;
// non-replicating shards synthesize an always-fresh reply.
type healther interface{ health() healthReply }

// fetchServerMeta asks a primary for its deployment shape. A transport
// failure (primary not up yet) is returned wrapped in errMetaUnreachable so
// NewFollower can retry it; malformed or non-200 replies fail immediately.
var errMetaUnreachable = errors.New("serve: primary unreachable")

func fetchServerMeta(client *http.Client, primary string) (serverMeta, error) {
	resp, err := client.Get(primary + "/repl/v1/meta")
	if err != nil {
		return serverMeta{}, fmt.Errorf("%w: fetching meta: %v", errMetaUnreachable, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serverMeta{}, fmt.Errorf("serve: primary meta status %d", resp.StatusCode)
	}
	var m serverMeta
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&m); err != nil {
		return serverMeta{}, fmt.Errorf("serve: decoding primary meta: %w", err)
	}
	if m.Shards <= 0 || m.Dim <= 0 || m.K <= 0 {
		return serverMeta{}, fmt.Errorf("serve: primary meta malformed: %+v", m)
	}
	return m, nil
}

// NewFollower builds a read-only replica deployment: one repl.Follower per
// primary shard, bootstrapped from the primary's checkpoints and replaying
// its WALs into local durable state under dir. The server mirrors the
// primary's shape (shard count, dim, k, partitioning) and answers queries
// with measured staleness; writes are rejected.
func NewFollower(dir, primary string, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	client := cfg.replicaClient()
	// Tolerate start ordering: a follower booted alongside (or before) its
	// primary retries an unreachable meta endpoint for a bounded window;
	// malformed replies still fail immediately.
	var meta serverMeta
	var err error
	for deadline := time.Now().Add(15 * time.Second); ; {
		meta, err = fetchServerMeta(client, primary)
		if err == nil || !errors.Is(err, errMetaUnreachable) || time.Now().After(deadline) {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if err != nil {
		return nil, err
	}
	cfg.Shards, cfg.Dim, cfg.K = meta.Shards, meta.Dim, meta.K
	if pm, err := ParsePartitionMode(meta.Partition); err == nil {
		cfg.Partition = pm
	}
	shards := make([]shard, cfg.Shards)
	for i := range shards {
		f, err := repl.StartFollower(repl.FollowerConfig{
			Dir:          filepath.Join(dir, fmt.Sprintf("shard-%03d", i)),
			Primary:      fmt.Sprintf("%s/repl/v1/shard/%03d", primary, i),
			Dim:          cfg.Dim,
			K:            cfg.K,
			PollInterval: cfg.FollowerPoll,
			Client:       client,
			WALOptions:   cfg.DurableOptions,
		})
		if err != nil {
			for _, sh := range shards[:i] {
				sh.close()
			}
			return nil, fmt.Errorf("serve: follower shard %d: %w", i, err)
		}
		shards[i] = &followerShard{id: i, n: cfg.Shards, f: f, now: time.Now}
	}
	part := newPartitioner(cfg.Partition, cfg.Shards, nil)
	s := newServer(cfg, false, shards, part)
	s.follower = true
	return s, nil
}
