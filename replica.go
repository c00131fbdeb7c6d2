package kwsc

// Replication facade. A durable dynamic index (OpenDurable) replicates to
// read-only follower processes by shipping its write-ahead log: the primary
// side serves its checkpoint and seq-continuous frame tail over HTTP (the
// sharded service wires this up automatically; embedders mount a
// ReplicaShipper themselves), and the follower side bootstraps from the
// newest checkpoint, replays the tail into its own local durable state, and
// tails forever with capped jittered backoff. Every follower knows exactly
// how stale it is: AppliedSeq is the primary operation prefix its queries
// reflect, Staleness the measured age of its last provably-caught-up view.
// See DESIGN.md §16.
//
//	f, err := kwsc.StartReplica(kwsc.ReplicaConfig{
//		Dir:     "/var/lib/kwsc-replica/shard-000",
//		Primary: "http://primary:8080/repl/v1/shard/000",
//		Dim:     2, K: 2,
//	})
//	...
//	st, _ := f.Durable().Query(q, ws, kwsc.QueryOpts{}, report) // acked prefix [1, f.AppliedSeq()]

import (
	"kwsc/internal/repl"
	"kwsc/internal/wal"
)

// Replica is a continuously-tailing read-only follower of one shipped
// durable directory.
type Replica = repl.Follower

// ReplicaConfig configures a Replica; see repl.FollowerConfig.
type ReplicaConfig = repl.FollowerConfig

// ReplicaShipper serves one durable directory's checkpoint and WAL tail to
// followers; mount Handler under the URL passed as the followers' Primary.
type ReplicaShipper = repl.Shipper

// ErrReplicaDiverged reports a follower whose replay no longer reproduces
// the primary's logged history; it stops applying rather than serve a wrong
// prefix.
var ErrReplicaDiverged = repl.ErrDiverged

// ErrReplicaReadOnly reports a direct write through a replica's Durable():
// follower state is owned by the shipped log, so mutations are refused
// instead of silently diverging the replica from its primary.
var ErrReplicaReadOnly = wal.ErrReadOnly

// OpenReplica seeds (when the directory is empty) and opens a follower
// without starting its tail loop; the caller drives catch-up with Poll.
func OpenReplica(cfg ReplicaConfig) (*Replica, error) { return repl.OpenFollower(cfg) }

// StartReplica opens a follower and starts its continuous tail loop.
func StartReplica(cfg ReplicaConfig) (*Replica, error) { return repl.StartFollower(cfg) }
