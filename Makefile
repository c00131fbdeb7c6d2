# Convenience targets; everything is plain `go` underneath.

GO ?= go
GOFMT ?= gofmt

.PHONY: all build test race vet vet-pager bench-check cover bench bench-1m bench-save bench-compare check crash fuzz-smoke serve-smoke replica-smoke repro repro-quick examples clean

all: build test

# The full pre-merge gate: vet + formatting + pager hygiene, the
# complete test suite, the race detector over the concurrent paths (parallel
# builds, shared-index readers, dynamic-index writers vs
# lock-free readers, the linearizability harness, the metrics registry, the
# sharded query service) including the failpoint/resilience tests, the
# crash-injection suite, a short fuzz smoke over the untrusted-input decoders,
# and an end-to-end serving smoke (kwscd booted, kwsload burst, clean shutdown),
# and a replication smoke (primary + two followers, bounded-staleness reads
# surviving a killed follower), bench-check, the two facade examples, and
# benchkw's quick sweep of every Table 1 row (tier-1's TestTable1 runs
# only the rows' small sizes).
check: vet
	$(GO) test ./...
	$(MAKE) bench-check
	$(MAKE) race
	$(MAKE) crash
	$(MAKE) fuzz-smoke
	$(MAKE) serve-smoke
	$(MAKE) replica-smoke
	$(MAKE) examples
	$(MAKE) repro-quick

# Crash-injection suite under the race detector: a panic is armed at every
# durability failpoint (mid-append, pre-fsync, mid-checkpoint, pre-rename,
# mid-replay), the "process" dies there, and recovery must reproduce exactly
# the acknowledged prefix (verified against an inverted-index replay) — plus
# the damaged-checkpoint recoveries: fall back to an older one and replay, or
# refuse a directory whose log cannot bridge to the state that validates.
# Replication's fault tests run too, because a follower applies shipped
# records through recovery's frame walk and apply rule and lands a download
# through the checkpoint's atomic landing: a follower killed mid-replay,
# torn, corrupt and diverged streams, lying and mislabelled checkpoints.
crash:
	$(GO) test -race -run 'Crash|DamagedCheckpoint|LogStartingAfterCheckpoint' ./internal/wal/
	$(GO) test -race -run 'KilledMidReplay|Torn|Corrupt|Diverged|Lying|Mislabelled' ./internal/repl/

# Short native-fuzz smoke over the untrusted-input decoders: the dataset
# file's container reader, the checkpoint's one reader (core), WAL
# recovery, the posting-block format (its one decoder round-trips, and the
# one list cursor seeks as a binary search does), the paged base and the flat image over re-sealed sections that lie,
# the /v1 wire codec held to encoding/json in both directions, the query
# stop checks under random limits and node budgets, the root keyword
# directory held to its span contract, the keyword pass held to
# Section 3.2's definitions and to one image at any parallelism over small
# random corpora, and the geometry the region tests stand on: polygon
# clipping, sphere-rectangle relations and the lifting map's membership.
# Each target runs briefly; use
# `go test -fuzz <name> -fuzztime 5m ./internal/...` for a real session.
FUZZ_TIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadDataset$$' -fuzztime $(FUZZ_TIME) ./internal/codec/
	$(GO) test -run '^$$' -fuzz '^FuzzReadPagedSnapshot$$' -fuzztime $(FUZZ_TIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzReplayWAL$$' -fuzztime $(FUZZ_TIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzPackDeltas$$' -fuzztime $(FUZZ_TIME) ./internal/bitpack/
	$(GO) test -run '^$$' -fuzz '^FuzzPagedBaseHostile$$' -fuzztime $(FUZZ_TIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzFlatImageHostile$$' -fuzztime $(FUZZ_TIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzExecPolicy$$' -fuzztime $(FUZZ_TIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzKeywordPass$$' -fuzztime $(FUZZ_TIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzKeywordDirectory$$' -fuzztime $(FUZZ_TIME) ./internal/dataset/
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZ_TIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzWireEncode$$' -fuzztime $(FUZZ_TIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzPolygonClip$$' -fuzztime $(FUZZ_TIME) ./internal/geom/
	$(GO) test -run '^$$' -fuzz '^FuzzSphereRelateRect$$' -fuzztime $(FUZZ_TIME) ./internal/geom/
	$(GO) test -run '^$$' -fuzz '^FuzzLiftMembership$$' -fuzztime $(FUZZ_TIME) ./internal/geom/

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# Static checks: go vet plus a gofmt cleanliness gate (fails listing any
# unformatted file) plus the pager gate.
vet:
	$(GO) vet ./...
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(MAKE) vet-pager

# Pager hygiene: checkpoint files are refcounted through internal/pager so
# that pruning can retire a file that a live index is still mapping. Any
# code that reads or unlinks a checkpoint path directly (os.ReadFile /
# os.Open / os.Remove on a checkpointPath, or any os.Open in core's
# checkpoint writer and reader, which take the path as a parameter)
# bypasses that protocol and can yank bytes out from under a serving
# index — the grep keeps such call sites from creeping back in. WAL
# segment files are exempt: they are replayed once at recovery, never
# mapped.
vet-pager:
	@hits=$$(grep -rnE 'os\.(ReadFile|Open|Remove|RemoveAll)\( *checkpointPath' \
		--include='*.go' internal/ cmd/ . 2>/dev/null; \
		grep -rnE 'os\.(ReadFile|Open)\([^)]*\.ckpt' --include='*.go' \
		internal/ cmd/ examples/ 2>/dev/null | grep -v '_test.go'; \
		grep -nE 'os\.(ReadFile|Open|OpenFile)\(' \
		internal/core/checkpoint.go internal/core/pagedbase.go); \
	if [ -n "$$hits" ]; then \
		echo "checkpoint bytes bypassing internal/pager:"; \
		echo "$$hits"; exit 1; \
	fi

# bench/ is its own module (replace kwsc => ../), so `go build ./...` and
# `go test ./...` here never compile it; this keeps the API it pins honest.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Race coverage over the concurrent paths: parallel builds and the flat
# images they save (core's tests), sibling kd partitions (spart) and the
# two-wide dataset copy (dataset), shared-index CollectInto calls,
# dynamic-index churn against lock-free readers and pinned snapshots, the WAL
# linearizability harness, and the metrics registry and tracer all run under
# the detector.
race:
	$(GO) vet ./...
	$(GO) test -race ./internal/core/ ./internal/spart/ ./internal/dataset/ ./internal/obs/ ./internal/wal/ ./internal/repl/ ./internal/serve/ ./internal/pager/ .

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem .

# The N=1M tier: the E1 conjunctive query at a million objects, with its
# bytes-resident figure. Opt-in because the build takes minutes; 20 timed
# iterations is plenty once the index is up.
bench-1m:
	KWSC_BENCH_1M=1 $(GO) test -run '^$$' -bench '^BenchmarkE1ORPKW2D1M$$' \
		-benchmem -benchtime=20x -timeout 60m .

# The tier-1 bench families snapshotted by bench-save / checked by
# bench-compare; the MetricsOn/Off pair keeps the observability overhead and
# the zero-alloc metrics-on property in the perf trajectory. The E1/E2
# families report bytes-resident beside ns/op; the BenchmarkE1ORPKW2D prefix
# also matches the 1M tier, which self-skips unless KWSC_BENCH_1M is set (see
# bench-1m), as BenchmarkColdStartPagedORPKW matches its 1M tier: the cold
# start guards the open, which derives every kd box from the coordinates.
BENCH_TIME ?= 200x
BENCH_REGEX = ^(BenchmarkE1ORPKW2D|BenchmarkE2ORPKW3D|BenchmarkORPKW2DCollect|BenchmarkORPKW2DCollectInto|BenchmarkORPKW2DCollectIntoMetricsOn|BenchmarkORPKW2DCollectIntoMetricsOff|BenchmarkBuildORPKW|BenchmarkBuildORPKWHigh|BenchmarkBuildORPKWPlanted|BenchmarkBuildLCKW|BenchmarkNewRankSpace|BenchmarkWALAppend|BenchmarkRecoveryReplay|BenchmarkConcurrentReadDuringChurn|BenchmarkStopNodeIntersect|BenchmarkDynamicQueryShard|BenchmarkColdStartPagedORPKW)

# Snapshot the tier-1 bench families as BENCH_<date>.json so later changes
# have a perf trajectory to compare against. The snapshot embeds the metrics
# registry of the run ({records, metrics}). Each benchmark runs BENCH_COUNT
# times and benchsave keeps the per-name minimum — the noise-robust statistic
# on shared/virtualized hardware, where single 200-iteration samples swing
# well past the compare tolerance on identical binaries.
# -cpu is pinned because `go test` appends -<GOMAXPROCS> to every
# benchmark name on a host with more than one CPU, and a snapshot only
# compares against a baseline whose names match.
BENCH_COUNT ?= 3
bench-save:
	$(GO) test -run '^$$' -bench '$(BENCH_REGEX)' -count=$(BENCH_COUNT) -cpu 1 \
		-benchmem -benchtime=$(BENCH_TIME) . | $(GO) run ./cmd/benchsave -out BENCH_$(shell date +%Y-%m-%d).json

# Compare a fresh run of the tier-1 bench families against the committed
# baseline; fails on >2x ns/op drift (a catastrophic-regression tripwire —
# shared hardware swings microsecond-scale and fsync-bound benches past 1.8x
# on identical binaries even at min-of-3) or any allocs/op increase beyond
# 0.1% (the zero-alloc query paths are a hard property, not a number to
# drift — including with the metrics registry enabled), or on any baseline
# row the run did not measure (a renamed or deleted benchmark stays guarded
# until the baseline is re-frozen).
BENCH_BASELINE ?= BENCH_2026-10-17.json
bench-compare:
	$(GO) test -run '^$$' -bench '$(BENCH_REGEX)' -count=$(BENCH_COUNT) -cpu 1 \
		-benchmem -benchtime=$(BENCH_TIME) . | $(GO) run ./cmd/benchsave -compare $(BENCH_BASELINE)

# End-to-end serving smoke: boot kwscd on a loopback port, drive a short
# kwsload burst (which exits non-zero on zero goodput), then SIGTERM and
# require a clean shutdown. Pure kwscd + kwsload + shell — no curl.
SERVE_SMOKE_ADDR ?= 127.0.0.1:18091
serve-smoke:
	@tmp=$$(mktemp -d); status=0; \
	$(GO) build -o $$tmp/kwscd ./cmd/kwscd || exit 1; \
	$(GO) build -o $$tmp/kwsload ./cmd/kwsload || exit 1; \
	$$tmp/kwscd -addr $(SERVE_SMOKE_ADDR) -mode static -shards 2 -n 10000 \
		-max-inflight 32 -soft-inflight 8 >$$tmp/kwscd.log 2>&1 & pid=$$!; \
	$$tmp/kwsload -addr $(SERVE_SMOKE_ADDR) -wait-ready 15s \
		-sweep 1,4 -duration 1s || status=1; \
	kill -TERM $$pid && wait $$pid || status=1; \
	grep -q "clean shutdown" $$tmp/kwscd.log || { \
		echo "kwscd did not shut down cleanly:"; cat $$tmp/kwscd.log; status=1; }; \
	rm -rf $$tmp; exit $$status

# Replication smoke (DESIGN.md §16): a durable primary configured with two
# follower replica URLs, two follower kwscd processes bootstrapping from its
# checkpoints and tailing its WALs, a bounded-staleness kwsload burst served
# with the group healthy, then one follower killed hard (SIGKILL) and a
# second burst that must keep succeeding — the probes declare the dead leg,
# reads fail over, and kwsload's zero-goodput exit code is the assertion.
# Finally both surviving processes must shut down cleanly.
REPLICA_SMOKE_ADDR ?= 127.0.0.1:18094
REPLICA_SMOKE_F1 ?= 127.0.0.1:18095
REPLICA_SMOKE_F2 ?= 127.0.0.1:18096
replica-smoke:
	@tmp=$$(mktemp -d); status=0; \
	$(GO) build -o $$tmp/kwscd ./cmd/kwscd || exit 1; \
	$(GO) build -o $$tmp/kwsload ./cmd/kwsload || exit 1; \
	$$tmp/kwscd -addr $(REPLICA_SMOKE_ADDR) -mode dynamic -dir $$tmp/primary \
		-shards 2 -n 5000 -replica-probe 50ms \
		-replicas http://$(REPLICA_SMOKE_F1),http://$(REPLICA_SMOKE_F2) \
		>$$tmp/primary.log 2>&1 & ppid=$$!; \
	$$tmp/kwscd -addr $(REPLICA_SMOKE_F1) -dir $$tmp/f1 -follow-poll 20ms \
		-follow http://$(REPLICA_SMOKE_ADDR) >$$tmp/f1.log 2>&1 & f1pid=$$!; \
	$$tmp/kwscd -addr $(REPLICA_SMOKE_F2) -dir $$tmp/f2 -follow-poll 20ms \
		-follow http://$(REPLICA_SMOKE_ADDR) >$$tmp/f2.log 2>&1 & f2pid=$$!; \
	$$tmp/kwsload -addr $(REPLICA_SMOKE_ADDR) -wait-ready 20s \
		-sweep 2 -duration 1s -max-staleness 2000 || status=1; \
	kill -KILL $$f1pid; \
	sleep 1; \
	$$tmp/kwsload -addr $(REPLICA_SMOKE_ADDR) -sweep 2 -duration 1s \
		-max-staleness 2000 || { echo "reads failed with one replica down"; status=1; }; \
	kill -TERM $$f2pid && wait $$f2pid || status=1; \
	kill -TERM $$ppid && wait $$ppid || status=1; \
	grep -q "clean shutdown" $$tmp/primary.log || { \
		echo "primary did not shut down cleanly:"; cat $$tmp/primary.log; status=1; }; \
	grep -q "clean shutdown" $$tmp/f2.log || { \
		echo "follower 2 did not shut down cleanly:"; cat $$tmp/f2.log; status=1; }; \
	rm -rf $$tmp; exit $$status

# Regenerate every experiment of EXPERIMENTS.md (full sweeps; minutes).
repro:
	$(GO) run ./cmd/benchkw

repro-quick:
	$(GO) run ./cmd/benchkw -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/served

clean:
	$(GO) clean ./...
