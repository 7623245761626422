package core

import (
	"sync/atomic"

	"github.com/drafts-go/drafts/internal/telemetry"
)

// Package-level instrument slots. They default to nil (telemetry off): each
// recording site then costs one atomic pointer load and one branch, so
// library users and benchmarks that never call RegisterMetrics pay nothing
// measurable. Once registered, a counter is one atomic add on a cache line
// every refresh worker shares, so paths that observe many ticks per call
// (ObserveAll, ObserveSeries) add once per call, not once per tick.
// atomic.Pointer makes registration safe even if a predictor is already
// running.
var (
	mObservations      atomic.Pointer[telemetry.Counter]
	mCensoredEpisodes  atomic.Pointer[telemetry.Counter]
	mDurationScans     atomic.Pointer[telemetry.Counter]
	mAdviseCalls       atomic.Pointer[telemetry.Counter]
	mAdviseEscalations atomic.Pointer[telemetry.Counter]
	mSurfaceBuilds     atomic.Pointer[telemetry.Counter]
	mSurfaceLookups    atomic.Pointer[telemetry.Counter]
)

// RegisterMetrics wires the predictor-level counters into r. Call once at
// startup, before heavy predictor traffic; calling with the same registry
// again is idempotent.
func RegisterMetrics(r *telemetry.Registry) {
	mObservations.Store(r.Counter("drafts_predictor_observations_total",
		"Price observations ingested by DrAFTS predictors."))
	mCensoredEpisodes.Store(r.Counter("drafts_predictor_censored_episodes_total",
		"Right-censored survival episodes entering duration samples, counted once per duration scan."))
	mDurationScans.Store(r.Counter("drafts_predictor_duration_scans_total",
		"Full-window duration scans run for guarantees."))
	mAdviseCalls.Store(r.Counter("drafts_predictor_advise_total",
		"Advise quote requests answered."))
	mAdviseEscalations.Store(r.Counter("drafts_predictor_advise_escalations_total",
		"Advise searches that escalated past the published table span."))
	mSurfaceBuilds.Store(r.Counter("drafts_predictor_surface_builds_total",
		"Advise surfaces materialized at refresh."))
	mSurfaceLookups.Store(r.Counter("drafts_predictor_surface_lookups_total",
		"Advise quotes answered from a precomputed surface."))
}
