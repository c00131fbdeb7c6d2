// Package serve is the sharded query service behind cmd/kwscd: it
// partitions a corpus across N shards (content-hash or rank-space range
// partition), fans queries out scatter-gather with one shared wall-clock
// deadline, merges the per-shard prefix-correct partial results
// deterministically, and routes writes to the owning shard, acknowledging
// after that shard's WAL ack. An admission controller sits in front:
// per-client token buckets, a global in-flight window with a degraded band,
// and 429 load shedding. Everything is instrumented through internal/obs
// and exported at /metrics. See DESIGN.md §14.
package serve

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kwsc"
	"kwsc/internal/obs"
	"kwsc/internal/repl"
)

// Config parameterizes a Server. The zero value serves one shard with no
// admission limits.
type Config struct {
	// Shards is the partition count (<= 0 means 1).
	Shards int
	// Partition selects hash or range partitioning.
	Partition PartitionMode
	// Dim and K fix the corpus dimensionality and query keyword arity.
	Dim, K int
	// Admission bounds the accepted load.
	Admission AdmissionConfig
	// DefaultTimeout bounds queries that carry no timeout_ms of their own
	// (0 means 2s; negative disables the default).
	DefaultTimeout time.Duration
	// DegradedNodeBudget is the per-shard node budget forced onto queries
	// admitted in the degraded band (0 means 4096). Static shards hitting
	// it fall back to their inverted-index baseline; dynamic shards return
	// the prefix collected so far.
	DegradedNodeBudget int64
	// BuildOptions are forwarded to every shard index construction.
	BuildOptions []kwsc.Option
	// DurableOptions are forwarded to OpenDurable for durable shards.
	DurableOptions []kwsc.DurableOption

	// ReplicaURLs are base URLs of follower kwscd processes replicating this
	// primary (dynamic durable mode only). Each shard then becomes a replica
	// group: bounded-staleness reads fan out across fresh-enough replicas
	// with failover to the writer; a request with no staleness bound always
	// reads the writer.
	ReplicaURLs []string
	// HedgeAfter launches the next replica candidate when the current one
	// has not answered within this latency (0 = no hedging).
	HedgeAfter time.Duration
	// ReplicaProbe is the background health-poll cadence per replica leg
	// (0 = 250ms); ReplicaLiveness is the probe age beyond which a leg
	// counts as down (0 = 3×probe).
	ReplicaProbe    time.Duration
	ReplicaLiveness time.Duration
	// ReplicaTimeout bounds each remote replica HTTP call (0 = 2s).
	ReplicaTimeout time.Duration
	// FollowerPoll is the WAL tail poll cadence of NewFollower deployments
	// (0 = repl default).
	FollowerPoll time.Duration
}

// replicaClient builds the HTTP client used for replica legs and follower
// tails.
func (c Config) replicaClient() *http.Client {
	t := c.ReplicaTimeout
	if t <= 0 {
		t = 2 * time.Second
	}
	return &http.Client{Timeout: t}
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Dim <= 0 {
		c.Dim = 2
	}
	if c.K <= 0 {
		c.K = 2
	}
	switch {
	case c.DefaultTimeout == 0:
		c.DefaultTimeout = 2 * time.Second
	case c.DefaultTimeout < 0:
		c.DefaultTimeout = 0
	}
	if c.DegradedNodeBudget <= 0 {
		c.DegradedNodeBudget = 4096
	}
	if c.ReplicaProbe <= 0 {
		c.ReplicaProbe = 250 * time.Millisecond
	}
	if c.ReplicaLiveness <= 0 {
		c.ReplicaLiveness = 3 * c.ReplicaProbe
	}
	return c
}

// Server is the sharded query service. Construct with NewStatic or
// NewDynamic, mount Handler on an http.Server, and Close on shutdown.
type Server struct {
	cfg     Config
	dynamic bool
	shards  []shard
	// locals are the underlying per-process shards, bypassing any replica
	// group wrapping — what the /repl/v1/shard/{i}/query leg endpoint and
	// the shipping surface serve from.
	locals   []shard
	ships    []*repl.Shipper
	follower bool
	part     *partitioner
	// prune lets the scatter skip legs whose range-partition interval misses
	// the query rectangle. It is set only where this process placed every
	// object by part's cuts — a static corpus, a dynamic one that started
	// empty — never for recovered or followed shards, whose objects an
	// earlier process placed by cuts this one cannot vouch for.
	prune bool
	adm   *admission
	start time.Time
	// scatters pools the per-request scatterState.
	scatters sync.Pool

	closeOnce sync.Once
	closeErr  error
}

// NewStatic partitions objs and builds one read-only shard per partition:
// a kwsc.Degraded (primary index + inverted-index fallback) behind the
// unified Index surface. Global ids are positions in objs.
func NewStatic(objs []kwsc.Object, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(objs) == 0 {
		return nil, fmt.Errorf("serve: static corpus needs at least one object")
	}
	cfg.Dim = len(objs[0].Point)
	part := newPartitioner(cfg.Partition, cfg.Shards, objs)
	groups, globals := part.split(objs)
	shards := make([]shard, cfg.Shards)
	for i := range shards {
		if len(groups[i]) == 0 {
			shards[i] = &staticShard{}
			continue
		}
		ds, err := kwsc.NewDataset(groups[i])
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d dataset: %w", i, err)
		}
		deg, err := kwsc.NewDegraded(ds, cfg.K, cfg.BuildOptions...)
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d index: %w", i, err)
		}
		shards[i] = &staticShard{ix: deg, ds: ds, globals: globals[i]}
	}
	s := newServer(cfg, false, shards, part)
	s.prune = true
	return s, nil
}

// NewDynamic builds one mutable shard per partition. With dir non-empty
// each shard is a DurableORPKW rooted at dir/shard-NNN (created or
// recovered); with dir empty the shards are in-memory DynamicORPKW
// instances. seed objects are bulk-loaded through normal routed inserts —
// but only when every shard starts empty, so reopening a durable deployment
// never double-loads. Global ids are write handles encoding the owning
// shard.
func NewDynamic(dir string, seed []kwsc.Object, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	part := newPartitioner(cfg.Partition, cfg.Shards, seed)
	shards := make([]shard, cfg.Shards)
	ships := make([]*repl.Shipper, 0, cfg.Shards)
	fresh := true
	for i := range shards {
		var ix dynamicIndex
		if dir == "" {
			d, err := kwsc.NewDynamicORPKW(cfg.Dim, cfg.K, 0, cfg.BuildOptions...)
			if err != nil {
				return nil, fmt.Errorf("serve: shard %d: %w", i, err)
			}
			ix = d
		} else {
			sub := filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
			if err := os.MkdirAll(sub, 0o755); err != nil {
				return nil, fmt.Errorf("serve: shard %d dir: %w", i, err)
			}
			opts := append([]kwsc.DurableOption(nil), cfg.DurableOptions...)
			if len(cfg.BuildOptions) > 0 {
				opts = append(opts, kwsc.WithDurableBuild(cfg.BuildOptions...))
			}
			d, err := kwsc.OpenDurable(sub, cfg.Dim, cfg.K, opts...)
			if err != nil {
				return nil, fmt.Errorf("serve: shard %d open: %w", i, err)
			}
			if d.LastSeq() > 0 {
				fresh = false
			}
			ix = d
			ships = append(ships, &repl.Shipper{Dir: sub, Dim: cfg.Dim, K: cfg.K, LastSeq: d.LastSeq})
		}
		shards[i] = &dynamicShard{id: i, n: cfg.Shards, ix: ix, now: time.Now}
	}
	s := newServer(cfg, true, shards, part)
	s.prune = fresh
	if len(ships) == len(shards) {
		s.ships = ships
	}
	if len(cfg.ReplicaURLs) > 0 {
		// Wrap every shard in a replica group: the local writer plus one
		// remote read leg per follower process.
		client := cfg.replicaClient()
		for i, sh := range shards {
			legs := make([]*remoteLeg, len(cfg.ReplicaURLs))
			for j, u := range cfg.ReplicaURLs {
				legs[j] = &remoteLeg{
					name:     fmt.Sprintf("replica-%d", j),
					baseURL:  fmt.Sprintf("%s/repl/v1/shard/%03d", u, i),
					client:   client,
					liveness: cfg.ReplicaLiveness,
				}
			}
			s.shards[i] = newReplicaGroup(i, sh, legs, cfg.HedgeAfter, cfg.ReplicaProbe)
		}
	}
	if fresh && len(seed) > 0 {
		if err := s.Load(seed); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

func newServer(cfg Config, dynamic bool, shards []shard, part *partitioner) *Server {
	return &Server{
		cfg: cfg, dynamic: dynamic, shards: shards,
		locals: append([]shard(nil), shards...), part: part,
		adm: newAdmission(cfg.Admission), start: time.Now(),
	}
}

// Load bulk-inserts objects through normal write routing (dynamic corpora
// only), acknowledging each through the owning shard's WAL.
func (s *Server) Load(objs []kwsc.Object) error {
	if !s.dynamic {
		return ErrReadOnly
	}
	for i, obj := range objs {
		sh := s.shards[s.part.route(obj)]
		if _, _, err := sh.insert(obj); err != nil {
			return fmt.Errorf("serve: loading object %d: %w", i, err)
		}
	}
	return nil
}

// Dynamic reports whether the corpus accepts writes.
func (s *Server) Dynamic() bool { return s.dynamic }

// K returns the query keyword arity; Dim the corpus dimensionality;
// NumShards the partition count.
func (s *Server) K() int         { return s.cfg.K }
func (s *Server) Dim() int       { return s.cfg.Dim }
func (s *Server) NumShards() int { return len(s.shards) }

// Live returns the number of live objects across all shards.
func (s *Server) Live() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.live()
	}
	return total
}

// Close releases every shard (closing durable WALs). Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		for _, sh := range s.shards {
			if err := sh.close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// legOutcome classifies how a scatter leg ended — the obs outcome vocabulary
// as an enum, so counting a leg is one atomic add on a series resolved at
// start-up and the wire string comes from a table.
type legOutcome uint8

const (
	outcomeOK legOutcome = iota
	outcomeDeadline
	outcomeBudget
	outcomeCanceled
	outcomePanic
	outcomeError
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "deadline", "budget", "canceled", "panic", "error"}

func (o legOutcome) String() string { return outcomeNames[o] }

// failed reports an outcome whose leg contributes no ids.
func (o legOutcome) failed() bool { return o == outcomePanic || o == outcomeError }

var shardOutcomes = func() (c [numOutcomes]*obs.Counter) {
	for i, name := range outcomeNames {
		c[i] = obs.Default().Counter(fmt.Sprintf("kwscd_shard_outcomes_total{outcome=%q}", name))
	}
	return c
}()

// outcomeOf classifies a scatter-leg error the way obs outcomes do.
func outcomeOf(err error) legOutcome {
	if err == nil {
		return outcomeOK // before pe is declared: errors.As makes it escape, an allocation per call
	}
	var pe *kwsc.PanicError
	switch {
	case errors.Is(err, kwsc.ErrDeadline):
		return outcomeDeadline
	case errors.Is(err, kwsc.ErrBudget):
		return outcomeBudget
	case errors.Is(err, kwsc.ErrCanceled):
		return outcomeCanceled
	case errors.As(err, &pe):
		return outcomePanic
	default:
		return outcomeError
	}
}

// legMode is where the scatter ran a leg.
type legMode uint8

const (
	legInline  legMode = iota // on the request goroutine
	legSpawned                // on a goroutine of its own
	legPruned                 // not at all: its key range misses the rectangle
	numLegModes
)

var scatterLegs = [numLegModes]*obs.Counter{
	legInline:  obs.Default().Counter(`kwscd_scatter_legs_total{mode="inline"}`),
	legSpawned: obs.Default().Counter(`kwscd_scatter_legs_total{mode="spawned"}`),
	legPruned:  obs.Default().Counter(`kwscd_scatter_legs_total{mode="pruned"}`),
}

// inlineWorkUnits is the leg estimate (shard.estimate, in QueryStats.Ops
// work units) up to which a local leg runs on the request goroutine. Handing
// a leg to a goroutine and being woken by it costs ≈ 4 µs and a work unit
// ≈ 30 ns (BenchmarkScatter: (per-leg − gated)/4 on tiny/shards=4, and
// ns/op ÷ units/op on heavy/shards=1; EXPERIMENTS.md "Scatter tax"), so a
// spawn breaks even near 135 units; twice that, because the hand-off is CPU
// the request would not otherwise burn — a spawned leg should save at least
// what it costs.
const inlineWorkUnits = 256

// scatterState is the per-request scatter/gather scratch: reply slots, the
// legs' id buffers, their modes and the merge heads. It is pooled per server,
// so a steady-state request allocates none of it; nothing in it may outlive
// the request — gather copies what the response keeps.
type scatterState struct {
	replies []legResult
	bufs    []legBuf
	modes   []legMode
	heads   [][]int64
	wg      sync.WaitGroup
}

func (s *Server) getScatter() *scatterState {
	if st, ok := s.scatters.Get().(*scatterState); ok {
		return st
	}
	n := len(s.shards)
	return &scatterState{
		replies: make([]legResult, n),
		bufs:    make([]legBuf, n),
		modes:   make([]legMode, n),
		heads:   make([][]int64, 0, n),
	}
}

// putScatter recycles st, dropping every reference a reply or head holds
// (errors, a remote leg's decoded ids) so the pool pins only the buffers.
func (s *Server) putScatter(st *scatterState) {
	clear(st.replies)
	clear(st.heads[:cap(st.heads)])
	s.scatters.Put(st)
}

// scatter runs every shard's leg and fills st.replies. Each leg is priced
// first (shard.estimate). Legs that may block on the network or are estimated
// heavier than a wake-up get a goroutine each and start first; the request
// goroutine meanwhile runs the light legs one after another — or, having
// none, keeps one heavy leg for itself — and waits only if it spawned
// anything. Under range partitioning a leg whose key range misses the
// rectangle is not run at all. All legs share the caller's absolute deadline
// (resolved once): a leg entered after it has passed returns its typed
// deadline prefix at its first policy poll, so running legs in sequence
// cannot extend the query's wall-clock budget.
func (s *Server) scatter(st *scatterState, req *kwsc.QueryRequest, q *kwsc.Rect, exact kwsc.Region, ws []kwsc.Keyword, opts kwsc.QueryOpts, staleness time.Duration) {
	var count [numLegModes]int64
	heavy := -1
	for i, sh := range s.shards {
		mode := legInline
		switch {
		case s.prune && s.part.misses(i, q):
			mode = legPruned
		case len(s.shards) > 1 && sh.estimate(ws, staleness) > inlineWorkUnits:
			mode, heavy = legSpawned, i
		}
		st.modes[i] = mode
		count[mode]++
	}
	if count[legInline] == 0 && heavy >= 0 {
		st.modes[heavy] = legInline
		count[legInline]++
		count[legSpawned]--
	}
	for i, mode := range st.modes {
		if mode == legSpawned {
			st.wg.Add(1)
			go func(i int) {
				defer st.wg.Done()
				st.replies[i] = s.shards[i].collect(req, q, exact, ws, opts, staleness, &st.bufs[i])
			}(i)
		}
	}
	for i, mode := range st.modes {
		switch mode {
		case legInline:
			st.replies[i] = s.shards[i].collect(req, q, exact, ws, opts, staleness, &st.bufs[i])
		case legPruned:
			st.replies[i] = legResult{seq: s.shards[i].seq()}
		}
	}
	if count[legSpawned] > 0 {
		st.wg.Wait()
	}
	for mode, n := range count {
		if n > 0 {
			scatterLegs[mode].Add(n)
		}
	}
}

// gather merges the scatter replies into one response. Policy-stopped
// shards contribute their prefix (the union stays prefix-correct);
// panicked or failed shards contribute nothing and mark the result
// truncated. Merging is deterministic: ascending global ids, limit cut
// applied to the merged sequence — after every leg has answered, never by
// skipping a later leg, because any leg may hold the smallest ids. The
// response owns all its memory; st's buffers are only read.
func gather(st *scatterState, limit int) (*kwsc.QueryResponse, error) {
	resp := &kwsc.QueryResponse{Shards: make([]kwsc.ShardOutcome, len(st.replies))}
	heads := st.heads[:0]
	total := 0
	for i := range st.replies {
		rep := &st.replies[i]
		out := outcomeOf(rep.err)
		if out == outcomeError && errors.Is(rep.err, kwsc.ErrInvalidQuery) {
			return nil, rep.err
		}
		shardOutcomes[out].Inc()
		ids := rep.ids
		if out.failed() {
			ids = nil
		}
		if rep.err != nil || rep.st.Truncated {
			resp.Truncated = true
		}
		if rep.st.Fallback {
			resp.Degraded = true
		}
		if rep.stale {
			resp.Stale = true
		}
		if len(ids) > 0 {
			heads = append(heads, ids)
		}
		total += len(ids)
		resp.Shards[i] = kwsc.ShardOutcome{
			Shard: i, Reported: len(ids), Ops: rep.st.Ops,
			Seq: rep.seq, Outcome: out.String(), FellBack: rep.st.Fallback,
			Replica: rep.replica, StalenessMs: rep.stalenessMs, Stale: rep.stale,
		}
	}
	if limit > 0 && total > limit {
		total = limit
		resp.Truncated = true
	}
	resp.IDs = mergeInto(make([]int64, 0, total), heads, limit)
	resp.Count = len(resp.IDs)
	return resp, nil
}

// Query answers one query request in-process (the HTTP handler, tests, and
// embedders share this path). Admission control is the caller's concern;
// degraded selects the degraded execution mode. The response never aliases
// the server's pooled per-request state.
func (s *Server) Query(req *kwsc.QueryRequest, degraded bool) (*kwsc.QueryResponse, error) {
	if err := req.Validate(s.cfg.Dim, s.cfg.K); err != nil {
		return nil, err
	}
	opts := req.Opts(s.cfg.DefaultTimeout)
	if degraded {
		if opts.Policy.NodeBudget == 0 || opts.Policy.NodeBudget > s.cfg.DegradedNodeBudget {
			opts.Policy.NodeBudget = s.cfg.DegradedNodeBudget
		}
	}
	// Resolve the relative timeout to one absolute deadline here so every
	// shard races the same clock instead of restarting the budget.
	if opts.Policy.Timeout > 0 && opts.Policy.Deadline.IsZero() {
		opts.Policy.Deadline = time.Now().Add(opts.Policy.Timeout)
		opts.Policy.Timeout = 0
	}
	start := time.Now()
	st := s.getScatter()
	defer s.putScatter(st)
	s.scatter(st, req, req.BoundingRect(s.cfg.Dim), req.ExactRegion(), req.Keywords, opts,
		time.Duration(req.MaxStalenessMs)*time.Millisecond)
	resp, err := gather(st, req.Limit)
	if err != nil {
		return nil, err
	}
	resp.Degraded = resp.Degraded || degraded
	resp.ElapsedUs = time.Since(start).Microseconds()
	return resp, nil
}

// Write applies one write request in-process. The returned response is
// acknowledged by the owning shard's WAL (per its fsync policy) before this
// returns.
func (s *Server) Write(req *kwsc.WriteRequest) (*kwsc.WriteResponse, error) {
	if !s.dynamic {
		return nil, ErrReadOnly
	}
	if err := req.Validate(s.cfg.Dim); err != nil {
		return nil, err
	}
	switch req.Op {
	case kwsc.OpInsert:
		obj := req.Object()
		si := s.part.route(obj)
		handle, seq, err := s.shards[si].insert(obj)
		if err != nil {
			return nil, err
		}
		return &kwsc.WriteResponse{Handle: handle, Seq: seq, Shard: si}, nil
	default: // OpDelete; Validate rejected everything else
		local, si := splitHandle(req.Handle, len(s.shards))
		if si < 0 || si >= len(s.shards) {
			return nil, fmt.Errorf("%w: handle %d maps outside the shard set", kwsc.ErrInvalidQuery, req.Handle)
		}
		ok, seq, err := s.shards[si].remove(local)
		if err != nil {
			return nil, err
		}
		return &kwsc.WriteResponse{Deleted: ok, Seq: seq, Shard: si}, nil
	}
}
