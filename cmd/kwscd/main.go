// Command kwscd serves a keyword-search-with-structured-constraints corpus
// over HTTP/JSON. The dataset is partitioned across N shards (content hash
// or rank-space range on dimension 0); queries scatter to every shard under
// one shared deadline and gather into a deterministic merged response,
// writes route to the owning shard and are acknowledged after its WAL ack.
// Admission control (per-client token buckets, a global in-flight window
// with a degraded band, 429 load shedding) keeps the server answering
// predictably under overload.
//
// Serve a synthetic static corpus, 4 shards, range-partitioned:
//
//	kwscd -addr :8080 -mode static -shards 4 -partition range -n 100000
//
// Serve a durable dynamic corpus (re-running recovers the WALs):
//
//	kwscd -addr :8080 -mode dynamic -dir /var/lib/kwsc -shards 4
//
// Run a read replica of that primary, and tell the primary about it so
// bounded-staleness reads fail over across the group:
//
//	kwscd -addr :8081 -dir /var/lib/kwsc-replica -follow http://primary:8080
//	kwscd -addr :8080 -mode dynamic -dir /var/lib/kwsc -shards 4 \
//	      -replicas http://replica:8081
//
// Endpoints: POST /v1/query, POST /v1/write, GET /healthz, GET /metrics
// (Prometheus), GET /debug/stats, plus the /repl/v1 replication surface.
// See DESIGN.md §14 (serving) and §16 (replication).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"kwsc"
	"kwsc/internal/serve"
	"kwsc/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		mode      = flag.String("mode", "static", "corpus mode: static (read-only) or dynamic (insert/delete)")
		dir       = flag.String("dir", "", "durable WAL root for dynamic mode (empty = in-memory, lost on exit)")
		shards    = flag.Int("shards", 4, "number of partitions")
		partition = flag.String("partition", "hash", "partitioning: hash or range (on dimension 0)")

		n      = flag.Int("n", 50_000, "synthetic corpus size")
		dim    = flag.Int("dim", 2, "dimensionality")
		k      = flag.Int("k", 2, "query keyword arity")
		vocab  = flag.Int("vocab", 1000, "synthetic vocabulary size")
		doclen = flag.Int("doclen", 6, "synthetic mean document length")
		seed   = flag.Int64("seed", 1, "synthetic corpus seed")

		maxInflight  = flag.Int("max-inflight", 0, "global in-flight hard cap (0 = unlimited)")
		softInflight = flag.Int("soft-inflight", 0, "in-flight level above which queries run degraded (0 = off)")
		clientRate   = flag.Float64("client-rate", 0, "per-client token refill rate, req/s (0 = no quota)")
		clientBurst  = flag.Float64("client-burst", 0, "per-client bucket capacity (0 = rate)")

		timeout = flag.Duration("timeout", 2*time.Second, "default query timeout when the request carries none")
		budget  = flag.Int64("degraded-budget", 4096, "per-shard node budget forced onto degraded-band queries")
		fsync   = flag.String("fsync", "interval", "durable WAL fsync policy: everyop, interval, or none")

		paged    = flag.Bool("paged-recovery", false, "dynamic mode: serve checkpoints through the pager (cold start = map + WAL tail)")
		noMmap   = flag.Bool("paged-pread", false, "with -paged-recovery: use pread + buffer pool instead of mmap")
		capPages = flag.Int("paged-cap", 0, "with -paged-pread: buffer-pool capacity in pages per shard (0 = default)")

		follow       = flag.String("follow", "", "run as a read-only replica of the primary at this base URL (requires -dir; overrides -mode)")
		followPoll   = flag.Duration("follow-poll", 0, "replica WAL tail poll cadence (0 = default)")
		replicas     = flag.String("replicas", "", "comma-separated follower base URLs; bounded-staleness reads fail over across them")
		hedgeAfter   = flag.Duration("hedge-after", 0, "hedge a replica read to the next candidate after this latency (0 = no hedging)")
		replicaProbe = flag.Duration("replica-probe", 0, "replica health-probe cadence (0 = default)")
	)
	flag.Parse()

	pmode, err := serve.ParsePartitionMode(*partition)
	if err != nil {
		log.Fatalf("kwscd: %v", err)
	}
	cfg := serve.Config{
		Shards:    *shards,
		Partition: pmode,
		Dim:       *dim,
		K:         *k,
		Admission: serve.AdmissionConfig{
			MaxInflight:  *maxInflight,
			SoftInflight: *softInflight,
			ClientRate:   *clientRate,
			ClientBurst:  *clientBurst,
		},
		DefaultTimeout:     *timeout,
		DegradedNodeBudget: *budget,
	}
	switch *fsync {
	case "everyop":
		cfg.DurableOptions = append(cfg.DurableOptions, kwsc.WithFsyncPolicy(kwsc.FsyncEveryOp))
	case "interval":
		cfg.DurableOptions = append(cfg.DurableOptions, kwsc.WithFsyncPolicy(kwsc.FsyncInterval))
	case "none":
		cfg.DurableOptions = append(cfg.DurableOptions, kwsc.WithFsyncPolicy(kwsc.FsyncNone))
	default:
		log.Fatalf("kwscd: unknown -fsync %q (want everyop, interval, or none)", *fsync)
	}
	if *paged {
		cfg.DurableOptions = append(cfg.DurableOptions, kwsc.WithPagedRecovery(kwsc.PagedBaseOptions{
			NoMmap:   *noMmap,
			CapPages: *capPages,
		}))
	}

	if *replicas != "" {
		cfg.ReplicaURLs = strings.Split(*replicas, ",")
	}
	cfg.HedgeAfter = *hedgeAfter
	cfg.ReplicaProbe = *replicaProbe
	cfg.FollowerPoll = *followPoll

	var s *serve.Server
	start := time.Now()
	servedMode := *mode
	if *follow != "" {
		if *dir == "" {
			log.Fatal("kwscd: -follow needs -dir for the replica's local durable state")
		}
		servedMode = "follower"
		s, err = serve.NewFollower(*dir, strings.TrimRight(*follow, "/"), cfg)
	} else {
		objs := genCorpus(*n, *dim, *vocab, *doclen, *seed)
		switch *mode {
		case "static":
			if len(objs) == 0 {
				log.Fatal("kwscd: -mode static needs a corpus; pass -n > 0")
			}
			s, err = serve.NewStatic(objs, cfg)
		case "dynamic":
			s, err = serve.NewDynamic(*dir, objs, cfg)
		default:
			log.Fatalf("kwscd: unknown -mode %q (want static or dynamic)", *mode)
		}
	}
	if err != nil {
		log.Fatalf("kwscd: building shards: %v", err)
	}
	defer s.Close()
	log.Printf("kwscd: %s corpus, %d objects live, %d shards (%s partition), built in %v",
		servedMode, s.Live(), s.NumShards(), pmode, time.Since(start).Round(time.Millisecond))

	srv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("kwscd: listening on %s", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		log.Print("kwscd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("kwscd: shutdown: %v", err)
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("kwscd: serve: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		log.Fatalf("kwscd: closing shards: %v", err)
	}
	log.Print("kwscd: clean shutdown")
}

// genCorpus builds the synthetic seed corpus; n <= 0 means start empty
// (dynamic mode only — every object then arrives through /v1/write).
func genCorpus(n, dim, vocab, doclen int, seed int64) []kwsc.Object {
	if n <= 0 {
		return nil
	}
	ds := workload.Gen(workload.Config{
		Seed: seed, Objects: n, Dim: dim, Vocab: vocab, DocLen: doclen,
	})
	objs := make([]kwsc.Object, ds.Len())
	for i := range objs {
		objs[i] = *ds.Object(int32(i))
	}
	return objs
}
