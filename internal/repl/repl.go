// Package repl replicates a durable dynamic index to read-only follower
// processes by shipping its write-ahead log (DESIGN.md §16).
//
// The primary side is a Shipper: an HTTP surface over one durable directory
// that serves the newest checkpoint (for follower bootstrap) and the
// seq-continuous frame tail after any acknowledged position, bounded by the
// primary's published LastSeq so an unacknowledged operation can never leave
// the machine. Frames travel verbatim — length, crc32c, payload — so the
// follower verifies every byte with the frame reader crash recovery uses.
//
// The follower side is a Follower: it seeds a local durable directory from
// the primary's newest checkpoint, replays the shipped tail into its own
// DynamicORPKW through wal.Durable.ApplyShipped — recovery's frame reader
// and apply rule on the normal WAL-journaled write path (every applied
// record is logged locally before it is acknowledged) — and tails forever
// with jittered exponential backoff on failure. Because applies run through
// the local WAL, a crashed follower resumes from its own recovery at the
// last applied sequence — no checkpoint re-download — and its queries carry
// the exact acked-prefix semantics of the primary. AppliedSeq, the primary's
// last observed sequence, and the time the follower was last provably caught
// up together make staleness a measured quantity, not a hope.
//
// Divergence is refused, never papered over: a replayed insert must produce
// the handle the primary logged, a replayed delete must hit a live handle,
// and a sequence gap or checksum mismatch stops the applier cold
// (ErrDiverged / wal.ErrCorrupt) rather than applying a wrong history.
package repl

import "kwsc/internal/obs"

// Replication metrics. The applied-seq gauge is per follower directory
// (shard), so a scrape shows exactly how far each replica has replayed;
// the lag histogram records the primary-minus-applied delta observed at
// each successful tail poll.
var (
	replFramesApplied = obs.Default().Counter("kwsc_repl_frames_applied_total")
	replBytesShipped  = obs.Default().Counter("kwsc_repl_ship_bytes_total")
	replShipRequests  = obs.Default().Counter("kwsc_repl_ship_requests_total")
	replBootstraps    = obs.Default().Counter("kwsc_repl_bootstraps_total")
	replCRCRefusals   = obs.Default().Counter("kwsc_repl_crc_refusals_total")
	replTornRetries   = obs.Default().Counter("kwsc_repl_torn_retries_total")
	replRetries       = obs.Default().Counter("kwsc_repl_retries_total")
	replLagSeq        = obs.Default().Histogram("kwsc_repl_lag_seq")
)

func appliedSeqGauge(shard string) *obs.Gauge {
	return obs.Default().Gauge(`kwsc_repl_applied_seq{shard="` + shard + `"}`)
}
