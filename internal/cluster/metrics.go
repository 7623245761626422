package cluster

import (
	"sync/atomic"

	"github.com/drafts-go/drafts/internal/telemetry"
)

// Package-level instrument slots, nil until RegisterMetrics wires a
// registry (the repository's telemetry-off-costs-one-branch convention;
// every instrument is nil-receiver-safe).
var (
	mEpochLag       atomic.Pointer[telemetry.Gauge]
	mShipStreams    atomic.Pointer[telemetry.Counter]
	mShipBytes      atomic.Pointer[telemetry.Counter]
	mShipFrames     atomic.Pointer[telemetry.Counter]
	mRecvBytes      atomic.Pointer[telemetry.Counter]
	mRecvFrames     atomic.Pointer[telemetry.Counter]
	mRecvTorn       atomic.Pointer[telemetry.Counter]
	mInstalls       atomic.Pointer[telemetry.Counter]
	mShipErrors     atomic.Pointer[telemetry.Counter]
	mCatchupSeconds atomic.Pointer[telemetry.Histogram]
	mRouterForward  atomic.Pointer[telemetry.Counter]
	mRouterFailover atomic.Pointer[telemetry.Counter]
)

// RegisterMetrics wires the replication instruments into r. Call once at
// startup; calling again with the same registry is idempotent.
func RegisterMetrics(r *telemetry.Registry) {
	mEpochLag.Store(r.Gauge("drafts_cluster_epoch_lag",
		"Epochs this node trails the writer by (0 when caught up)."))
	mShipStreams.Store(r.Counter("drafts_cluster_ship_streams_total",
		"Epoch streams served to replicas (full snapshots and deltas)."))
	mShipBytes.Store(r.Counter("drafts_cluster_ship_bytes_total",
		"Epoch stream bytes written to replicas."))
	mShipFrames.Store(r.Counter("drafts_cluster_ship_frames_total",
		"Epoch stream frames written to replicas."))
	mRecvBytes.Store(r.Counter("drafts_cluster_recv_bytes_total",
		"Epoch stream bytes received from the writer."))
	mRecvFrames.Store(r.Counter("drafts_cluster_recv_frames_total",
		"Complete epoch stream frames decoded from the writer."))
	mRecvTorn.Store(r.Counter("drafts_cluster_recv_torn_total",
		"Truncated stream tails discarded before resuming from the cursor."))
	mInstalls.Store(r.Counter("drafts_cluster_installs_total",
		"Epochs installed into the local blob store via replication."))
	mShipErrors.Store(r.Counter("drafts_cluster_ship_errors_total",
		"Replication cycles that failed (transport, decode, or install)."))
	mCatchupSeconds.Store(r.Histogram("drafts_cluster_catchup_seconds",
		"Duration of one replication cycle, first fetch to installed epoch.", nil))
	mRouterForward.Store(r.Counter("drafts_cluster_router_forward_total",
		"Reads forwarded to the owning node by the router."))
	mRouterFailover.Store(r.Counter("drafts_cluster_router_failover_total",
		"Forwards that failed over to the next ring candidate."))
}
