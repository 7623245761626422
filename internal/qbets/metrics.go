package qbets

import (
	"sync/atomic"

	"github.com/drafts-go/drafts/internal/telemetry"
)

// Instrument slots, nil (no-op) until RegisterMetrics wires a registry.
// Observe is the repository's single hottest path, so the off state must
// cost exactly one atomic pointer load and one branch per call. A
// registered counter is one atomic add on a cache line every goroutine
// observing shares, so ObserveAll adds once per call, not once per value.
var (
	mObservations atomic.Pointer[telemetry.Counter]
	mChangePoints atomic.Pointer[telemetry.Counter]
)

// RegisterMetrics wires the QBETS counters into r. Idempotent for a given
// registry; call at startup before heavy traffic.
func RegisterMetrics(r *telemetry.Registry) {
	mObservations.Store(r.Counter("drafts_qbets_observations_total",
		"Observations ingested by QBETS forecasters."))
	mChangePoints.Store(r.Counter("drafts_qbets_change_points_total",
		"Change points fired by the QBETS detectors (history truncations)."))
}
