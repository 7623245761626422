// Package service implements the DrAFTS on-line prediction service and its
// Go client (§3.3). The original has run at predictspotprice.cs.ucsb.edu
// since late 2015 as part of the Aristotle project; this implementation
// reproduces its contract:
//
//   - it periodically (every 15 minutes by default) pulls price histories
//     and recomputes a set of maximum-bid predictions for every instance
//     type and availability zone;
//   - for each combo it publishes bid tables at the 0.95 and 0.99
//     probability levels, starting at the smallest bid that can guarantee
//     any duration and increasing in 5% increments up to 4x that minimum;
//   - clients fetch tables over a REST API as JSON (machine-readable, as
//     consumed by the Globus Galaxies provisioner in §4.3).
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/faults"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/obfuscate"
	"github.com/drafts-go/drafts/internal/resilience"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/telemetry"
	"github.com/drafts-go/drafts/internal/tenant"
	"github.com/drafts-go/drafts/internal/trace"
)

// Source supplies price histories; *history.Store satisfies it.
type Source interface {
	Combos() []spot.Combo
	Full(c spot.Combo) (*history.Series, bool)
}

// Config parameterizes the service.
type Config struct {
	Source Source
	// Probabilities to precompute tables for (default 0.95 and 0.99, the
	// levels the production service publishes).
	Probabilities []float64
	// RefreshEvery is the recomputation period (default 15 minutes).
	RefreshEvery time.Duration
	// MaxHistory caps the history fed to each predictor (default three
	// months).
	MaxHistory int
	// RefreshWorkers bounds the refresh fan-out (default: GOMAXPROCS).
	// Smaller values trade refresh latency for a quieter machine — useful
	// when draftsd shares a host.
	RefreshWorkers int
	// IncrementalMaxTicks caps how many new price ticks a combo may have
	// accumulated since the last refresh for the incremental path to apply:
	// instead of re-ingesting the whole history window (~26k ticks for three
	// months), the refresh clones the previously installed predictor and
	// feeds it only the new ticks. Incremental results are byte-identical to
	// a full recompute (enforced by TestIncrementalRefreshEquivalence); the
	// cap only bounds the clone cost spent before falling back to the flat
	// full scan. Zero selects DefaultIncrementalMaxTicks; negative disables
	// the incremental path entirely.
	IncrementalMaxTicks int
	// Durable, when non-nil, receives the encoded serving state after every
	// successful refresh (for crash recovery) and a retention-compaction
	// request aligned with the history window. Persistence failures are
	// logged, never fatal: serving fresh tables beats durability.
	Durable Durable
	// PreRefresh, when non-nil, runs at the top of every refresh cycle —
	// the daemon's hook for extending price histories with newly announced
	// ticks before tables recompute. Its error is logged and the refresh
	// proceeds on the histories as they stand.
	PreRefresh func() error
	// AccountMappings translates per-account obfuscated zone names to the
	// service's canonical ones. The provider remaps zone names per account
	// (§2.2), so a client's "us-east-1b" may be the service's
	// "us-east-1d"; the production prototype preconfigured this mapping
	// for each client (§3.3). Requests carrying ?account=<id> with a
	// configured mapping are translated; unknown accounts get an error
	// rather than silently wrong predictions. With Tenants configured the
	// account is derived from the authenticated tenant instead, and
	// ?account= survives only as a deprecated alias that must match it.
	AccountMappings map[string]obfuscate.Mapping
	// Tenants, when non-nil, requires every /v1/* request to authenticate
	// with a registered API key (Authorization: Bearer <key> or X-Api-Key)
	// and enforces each tenant's token-bucket quota and weighted
	// concurrency share before shared admission control. Nil preserves the
	// historical anonymous service exactly. The server installs a wall
	// clock into the registry and, when Metrics is configured, registers
	// the bounded-cardinality per-tenant counters.
	Tenants *tenant.Registry
	// Logger receives the service's structured logs (refresh outcomes,
	// per-combo failures). Nil discards them.
	Logger *slog.Logger
	// Metrics, when non-nil, registers the service's metric families
	// (request counts/latency, refresh instrumentation, table gauges) in
	// the given registry. Nil disables collection at the cost of one
	// branch per instrumentation site.
	Metrics *telemetry.Registry
	// MaxConcurrent caps the weighted concurrency admitted to /v1/*
	// (cached reads weigh 1, /v1/fleet weighs 4). 0 disables admission
	// control entirely — every request runs unbounded, as before.
	MaxConcurrent int
	// MaxQueue bounds how many requests may wait for admission once
	// MaxConcurrent is saturated; overflow is shed immediately with
	// 503 + Retry-After. Meaningful only with MaxConcurrent > 0.
	MaxQueue int
	// QueueWait bounds how long an admitted-queue request may wait before
	// it is shed (default 1s with admission control on).
	QueueWait time.Duration
	// AdviseBudget has no effect. It bounded the /v1/advise
	// bid-escalation scan, which the precomputed advise surfaces replaced;
	// the field remains only so existing configurations still compile.
	AdviseBudget time.Duration
	// MaxStaleness converts degraded (serve-stale) reads into
	// 503/stale refusals once the tables age past it. 0 serves stale
	// tables indefinitely.
	MaxStaleness time.Duration
	// RetryAfter is the Retry-After hint stamped on shed and stale 503s
	// (default 1s, whole seconds).
	RetryAfter time.Duration
	// BreakerThreshold is how many consecutive refresh failures trip the
	// refresh circuit breaker (default 3).
	BreakerThreshold int
	// BreakerBackoff is the breaker's base probe delay once open (default
	// RefreshEvery/4); successive failed probes double it up to
	// BreakerMaxBackoff (default RefreshEvery), both with ±50% jitter.
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	// Faults optionally injects failures at the "service.refresh"
	// operation point. nil (the production default) disables injection.
	Faults *faults.Set
	// Tracer, when non-nil, traces every request and refresh cycle into
	// the always-on flight recorder served at GET /debug/flight, and
	// unifies X-Request-Id with the trace ID. The unsampled cached-GET
	// path stays allocation-free (see wrap); sampling, errors-always
	// retention, and the slow-trace threshold are the Tracer's own
	// configuration.
	Tracer *trace.Tracer
	// OnEpoch, when non-nil, is called after every blob-store install with
	// the newly published epoch — on a writer after each refresh, on a
	// replica after each InstallEpoch. It is the replication publish hook:
	// the daemon points it at cluster.Shipper.Publish so freshly computed
	// epochs ship to replicas. The hook runs synchronously on the
	// installing goroutine and must not block.
	OnEpoch func(*Epoch)
}

// DefaultIncrementalMaxTicks is the default cap on the incremental refresh
// path: one day of 5-minute ticks. A refresh loop running anywhere near its
// default 15-minute period accumulates ~3 ticks per cycle, so in steady
// state every refresh is incremental; the cap only matters after long
// outages, where a full recompute is no slower than replaying the gap.
const DefaultIncrementalMaxTicks = 24 * 12

// Server computes and serves bid tables and advise surfaces. All serving
// state lives in the installed epoch (blobs); the writer's epochs also
// carry the predictors the next incremental refresh extends.
type Server struct {
	cfg            Config
	logger         *slog.Logger
	metrics        *serviceMetrics
	incrementalMax int

	// role is "writer" or "replica"; epochSeq is the writer-local epoch
	// counter (replicas mirror the writer's value on install). Both exist
	// for replication and /v1/cluster/status — the serving path ignores
	// them.
	role     string
	epochSeq atomic.Uint64

	// sem admits /v1/* requests when MaxConcurrent is configured; nil
	// means no admission control. breaker gates the refresh loop's retry
	// cadence after consecutive failures; it always exists (a breaker
	// that never trips is free).
	sem     *resilience.Semaphore
	breaker *resilience.Breaker

	// tenants mirrors cfg.Tenants; nil serves anonymously, exactly as the
	// service always did.
	tenants *tenant.Registry

	// blobs is the installed epoch, the server's only serving state:
	// replaced wholesale by each refresh, snapshot restore, or replicated
	// install. Handlers Load it once per request and treat the contents as
	// immutable, so reads never touch s.mu. Nil until the first install; a
	// failed install leaves the previous epoch in place.
	blobs atomic.Pointer[encodedTables]

	// now stamps each refreshed epoch's asOf (time.Now; tests age epochs
	// through it).
	now func() time.Time

	// mu orders epoch installs and guards lastErr, the most recent refresh
	// error ("" after a clean refresh).
	mu      sync.Mutex
	lastErr string
}

type tableKey struct {
	combo spot.Combo
	prob  float64
}

// New validates the configuration and returns a writer server with no
// tables yet; call Refresh (or Start) to populate it. For a read-only
// replication target, use NewReplica.
func New(cfg Config) (*Server, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("service: nil source")
	}
	return newServer(cfg, roleWriter)
}

// newServer is the shared construction path behind New and NewReplica.
func newServer(cfg Config, role string) (*Server, error) {
	if len(cfg.Probabilities) == 0 {
		cfg.Probabilities = []float64{0.95, 0.99}
	}
	for _, p := range cfg.Probabilities {
		if !(p > 0 && p < 1) {
			return nil, fmt.Errorf("service: probability %v outside (0,1)", p)
		}
	}
	if cfg.RefreshEvery == 0 {
		cfg.RefreshEvery = 15 * time.Minute
	}
	if cfg.RefreshEvery < 0 {
		return nil, fmt.Errorf("service: negative refresh period")
	}
	if cfg.MaxHistory == 0 {
		cfg.MaxHistory = core.DefaultMaxHistory
	}
	if cfg.RefreshWorkers < 0 {
		return nil, fmt.Errorf("service: negative refresh workers")
	}
	incrementalMax := cfg.IncrementalMaxTicks
	switch {
	case incrementalMax == 0:
		incrementalMax = DefaultIncrementalMaxTicks
	case incrementalMax < 0:
		incrementalMax = 0 // disabled
	}
	if cfg.MaxConcurrent < 0 {
		return nil, fmt.Errorf("service: negative max concurrent")
	}
	if cfg.MaxQueue < 0 {
		return nil, fmt.Errorf("service: negative max queue")
	}
	if cfg.MaxConcurrent > 0 && cfg.QueueWait == 0 {
		cfg.QueueWait = time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerBackoff <= 0 {
		cfg.BreakerBackoff = cfg.RefreshEvery / 4
	}
	if cfg.BreakerMaxBackoff <= 0 {
		cfg.BreakerMaxBackoff = cfg.RefreshEvery
	}
	logger := cfg.Logger
	if logger == nil {
		logger = telemetry.NopLogger()
	}
	s := &Server{
		cfg:            cfg,
		logger:         logger,
		metrics:        newServiceMetrics(cfg.Metrics),
		incrementalMax: incrementalMax,
		role:           role,
		breaker: resilience.NewBreaker(cfg.BreakerThreshold,
			cfg.BreakerBackoff, cfg.BreakerMaxBackoff, time.Now().UnixNano()),
		now: time.Now,
	}
	if cfg.MaxConcurrent > 0 {
		s.sem = resilience.NewSemaphore(int64(cfg.MaxConcurrent), cfg.MaxQueue)
	}
	if cfg.Tenants != nil {
		s.tenants = cfg.Tenants
		s.tenants.EnsureClock(time.Now)
		if cfg.MaxConcurrent > 0 {
			s.tenants.SetConcurrencyShare(int64(cfg.MaxConcurrent))
		}
		if cfg.Metrics != nil {
			s.tenants.RegisterMetrics(cfg.Metrics, 0)
		}
	}
	return s, nil
}

// Refresh recomputes every combo's bid tables from the current histories,
// fanned out across RefreshWorkers goroutines (GOMAXPROCS by default).
// Combos whose history advanced by at most IncrementalMaxTicks since the
// previous refresh take the incremental path: the installed predictor is
// cloned and fed only the new ticks, producing byte-identical tables at a
// fraction of the full-window cost. The fresh tables, their predictors, and
// their advise surfaces are then installed as one new epoch.
//
// Refreshes are best-effort per combo: a predictor failure is counted,
// logged, and surfaced through /healthz and the refresh metrics, but the
// tables that did compute are still installed and keep serving. Refresh
// returns an error only when the previous epoch must stay in place: the
// failures left it with nothing at all, or the new epoch failed to encode.
func (s *Server) Refresh() error {
	if s.role == roleReplica {
		return fmt.Errorf("service: replica cannot refresh; epochs arrive via InstallEpoch")
	}
	began := time.Now()
	// One trace per refresh cycle, forced into the flight recorder
	// regardless of sampling: refreshes are rare (minutes apart) and the
	// cycle's phase timings — tick ingest through snapshot write — are
	// exactly what a degraded node's operator wants from /debug/flight.
	tr := s.cfg.Tracer.StartTrace("refresh")
	defer tr.End()
	tr.Force()
	if err := s.cfg.Faults.Check("service.refresh"); err != nil {
		return s.refreshFailed(tr, fmt.Errorf("service: refresh failed: %w", err))
	}
	if s.cfg.PreRefresh != nil {
		sp := tr.StartSpan("ticks.ingest")
		err := s.cfg.PreRefresh()
		sp.EndErr(err)
		if err != nil {
			s.logger.Warn("refresh: pre-refresh hook failed; using histories as they stand", "err", err)
		}
	}
	combos := s.cfg.Source.Combos()
	fresh := make(map[tableKey]core.BidTable, len(combos)*len(s.cfg.Probabilities))
	freshPreds := make(map[tableKey]*core.Predictor, len(combos)*len(s.cfg.Probabilities))

	// The installed epoch's predictors feed the incremental path. An epoch
	// is immutable, so reading them during the fan-out needs no lock.
	var prevPreds map[tableKey]*core.Predictor
	if prev := s.blobs.Load(); prev != nil {
		prevPreds = prev.preds
	}

	// The effective parameters a fresh predictor would get, per probability
	// level: an installed predictor is reusable only if its parameters match
	// exactly. A Params validation error here would also fail NewPredictor
	// below, so it is left for the worker loop to report.
	wantParams := make([]core.Params, len(s.cfg.Probabilities))
	for i, prob := range s.cfg.Probabilities {
		if p, err := (core.Params{Probability: prob, MaxHistory: s.cfg.MaxHistory}).WithDefaults(); err == nil {
			wantParams[i] = p
		}
	}

	var (
		mu          sync.Mutex
		wg          sync.WaitGroup
		firstErr    error
		lastErr     error
		errCount    int
		skipped     int
		incremental int
	)
	workers := s.cfg.RefreshWorkers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// One span covers the whole fan-out: the per-combo qbets updates and
	// table builds run inside it (per-combo spans would blow the fixed
	// span budget at fleet scale).
	buildSpan := tr.StartSpan("tables.build")
	work := make(chan spot.Combo)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				series, ok := s.cfg.Source.Full(c)
				if !ok || series.Len() == 0 {
					mu.Lock()
					skipped++
					mu.Unlock()
					continue
				}
				for i, prob := range s.cfg.Probabilities {
					key := tableKey{combo: c, prob: prob}
					pred := s.extendPredictor(prevPreds[key], wantParams[i], series)
					if pred != nil {
						mu.Lock()
						incremental++
						mu.Unlock()
					} else {
						var err error
						pred, err = core.NewPredictor(core.Params{
							Probability: prob,
							MaxHistory:  s.cfg.MaxHistory,
						}, series.Start)
						if err != nil {
							s.metrics.comboErrors.Inc()
							s.logger.Warn("refresh: predictor failed",
								"zone", string(c.Zone), "type", string(c.Type),
								"probability", prob, "err", err)
							mu.Lock()
							errCount++
							if firstErr == nil {
								firstErr = err
							}
							lastErr = err
							mu.Unlock()
							continue
						}
						pred.ObserveSeries(series)
					}
					if table, ok := pred.Table(); ok {
						mu.Lock()
						fresh[key] = table
						freshPreds[key] = pred
						mu.Unlock()
					} else {
						mu.Lock()
						skipped++
						mu.Unlock()
					}
				}
			}
		}()
	}
	for _, c := range combos {
		work <- c
	}
	close(work)
	wg.Wait()
	buildSpan.End()

	elapsed := time.Since(began)
	s.metrics.refreshDuration.Observe(elapsed.Seconds())
	s.metrics.combosComputed.Add(uint64(len(fresh)))
	s.metrics.combosSkipped.Add(uint64(skipped))
	s.metrics.refreshIncremental.Add(uint64(incremental))

	if len(fresh) == 0 && errCount > 0 {
		return s.refreshFailed(tr, fmt.Errorf("service: refresh produced no tables (%d failures, first: %w)", errCount, firstErr))
	}

	// Surfaces are built before asOf is stamped: their construction cost
	// (a GuaranteeFor per escalation entry per table) must not age the
	// epoch it describes.
	surfSpan := tr.StartSpan("surfaces.build")
	surfaces := buildSurfaces(fresh, freshPreds)
	surfSpan.End()

	now := s.now().UTC()
	errStr := ""
	if errCount > 0 {
		errStr = fmt.Sprintf("%d combo failures, last: %v", errCount, lastErr)
	}
	if err := s.install(fresh, freshPreds, surfaces, now, errStr, tr); err != nil {
		return s.refreshFailed(tr, fmt.Errorf("service: refresh kept the previous epoch: %w", err))
	}
	s.metrics.lastSuccess.SetTime(now)
	if s.cfg.Tracer != nil {
		s.logger.Info("refresh complete",
			"tables", len(fresh), "skipped", skipped, "combo_errors", errCount,
			"incremental", incremental, "elapsed", elapsed.Round(time.Millisecond),
			"trace_id", tr.IDString())
	} else {
		s.logger.Info("refresh complete",
			"tables", len(fresh), "skipped", skipped, "combo_errors", errCount,
			"incremental", incremental, "elapsed", elapsed.Round(time.Millisecond))
	}
	s.persist(now, tr)
	return nil
}

// refreshFailed records a refresh that left the previous epoch in place:
// the trace is failed, the error counted and reported through /healthz,
// and returned.
func (s *Server) refreshFailed(tr *trace.Trace, err error) error {
	tr.Fail(err)
	s.metrics.refreshErrors.Inc()
	s.setLastErr(err.Error())
	return err
}

// setLastErr records the error /healthz reports as last_refresh_error.
func (s *Server) setLastErr(msg string) {
	s.mu.Lock()
	s.lastErr = msg
	s.mu.Unlock()
}

// extendPredictor attempts the incremental refresh path for one combo: if
// the previously installed predictor has matching parameters and the series
// has advanced by no more than incrementalMax ticks on the same grid, it
// returns a clone of that predictor extended with exactly the new ticks.
// Installed predictors are shared with in-flight /v1/advise requests and
// must never be mutated, which is why the clone is mandatory. A nil return
// means the caller must rebuild from the full window.
//
// The clone's lifetime observation sequence then equals what a fresh
// predictor sees over the full series, making the resulting tables
// byte-identical to a full recompute — TestIncrementalRefreshEquivalence
// enforces this across randomized tick sequences.
func (s *Server) extendPredictor(old *core.Predictor, want core.Params, series *history.Series) *core.Predictor {
	if old == nil || s.incrementalMax <= 0 || old.Len() == 0 || old.Params() != want {
		return nil
	}
	// Map the predictor's watermark onto the series grid; the tick at
	// next-1 must be exactly the predictor's latest observation time or the
	// grids have diverged (source swapped, series rebuilt from scratch).
	next := series.IndexOf(old.Now()) + 1
	if next < 1 || next > series.Len() || series.Len()-next > s.incrementalMax {
		return nil
	}
	if !series.TimeAt(next - 1).Equal(old.Now()) {
		return nil
	}
	pred := old.Clone()
	for _, v := range series.Prices[next:] {
		pred.Observe(v)
	}
	return pred
}

// persist checkpoints the freshly installed serving state and trims WAL
// segments no restore needs (see walCutoff). Both are best-effort: a
// persistence failure costs recovery freshness, not serving — so failures
// mark the refresh trace's spans but never fail the trace itself. The
// store's WAL sync rides inside the snapshot.write span (WriteSnapshot
// syncs the log before publishing).
func (s *Server) persist(now time.Time, tr *trace.Trace) {
	if s.cfg.Durable == nil {
		return
	}
	sp := tr.StartSpan("snapshot.encode")
	payload, err := s.EncodeSnapshot()
	sp.EndErr(err)
	if err != nil {
		s.logger.Error("refresh: encoding snapshot failed", "err", err)
		return
	}
	wsp := tr.StartSpan("snapshot.write")
	err = s.cfg.Durable.WriteSnapshot(payload)
	wsp.EndErr(err)
	if err != nil {
		s.logger.Error("refresh: writing snapshot failed", "err", err)
		return
	}
	csp := tr.StartSpan("wal.compact")
	removed, err := s.cfg.Durable.CompactBefore(s.walCutoff(now))
	csp.EndErr(err)
	if err != nil {
		s.logger.Warn("refresh: WAL compaction failed", "err", err)
		return
	}
	if removed > 0 {
		s.logger.Info("compacted WAL", "segments_removed", removed)
	}
}

// walCutoff is the WAL compaction cutoff: the oldest tick any installed
// predictor's window still holds, capped at the retention horizon
// now - history.Retention. Restores re-slice every window from the log, so
// no tick a window holds may be compacted away, even when the ticks lag
// the wall clock.
func (s *Server) walCutoff(now time.Time) time.Time {
	cutoff := now.Add(-history.Retention)
	et := s.blobs.Load()
	if et == nil {
		return cutoff
	}
	for _, pred := range et.preds {
		if oldest, ok := pred.Oldest(); ok && oldest.Before(cutoff) {
			cutoff = oldest
		}
	}
	return cutoff
}

// Start runs the 15-minute refresh loop until the context is cancelled.
// On a cold start the first refresh happens synchronously and its error is
// returned; after RestoreSnapshot has installed tables (a warm restart),
// the restored state serves immediately and the first refresh runs in the
// background instead of blocking startup.
//
// Periodic refreshes are best-effort: the previous tables keep serving if
// a recomputation fails. Consecutive failures (BreakerThreshold of them)
// trip a circuit breaker, after which the loop stops hammering the failing
// source on the normal cadence and instead probes it on a jittered
// exponential backoff (BreakerBackoff doubling up to BreakerMaxBackoff).
// While the breaker is open the service is in degraded, serve-stale mode:
// reads carry X-Drafts-Staleness once the tables age past two refresh
// periods and /healthz reports "degraded". The first successful probe
// closes the breaker and restores the normal cadence.
func (s *Server) Start(ctx context.Context) error {
	if s.role == roleReplica {
		return fmt.Errorf("service: replica has no refresh loop; run a cluster.Receiver instead")
	}
	if s.blobs.Load() != nil { // warm: a restored snapshot is serving
		go func() {
			if err := s.Refresh(); err != nil {
				s.logger.Error("post-recovery refresh failed; serving restored tables", "err", err)
			}
		}()
	} else if err := s.Refresh(); err != nil {
		return err
	}
	go s.refreshLoop(ctx)
	return nil
}

// refreshLoop drives periodic refreshes through the circuit breaker.
func (s *Server) refreshLoop(ctx context.Context) {
	timer := time.NewTimer(s.cfg.RefreshEvery)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		probing := s.breaker.Probe()
		err := s.Refresh()
		switch {
		case err == nil:
			if s.breaker.State() != resilience.Closed || probing {
				s.logger.Info("refresh recovered; circuit breaker closed")
			}
			s.breaker.Success()
			s.metrics.breakerState.Set(0)
			timer.Reset(s.cfg.RefreshEvery)
		default:
			tripped := s.breaker.Failure()
			if state := s.breaker.State(); state == resilience.Open {
				wait := s.breaker.Backoff()
				if tripped && !probing {
					s.logger.Error("refresh circuit breaker tripped; serving stale tables",
						"err", err, "next_probe_in", wait.Round(time.Millisecond))
				} else {
					s.logger.Warn("refresh probe failed; breaker stays open",
						"err", err, "next_probe_in", wait.Round(time.Millisecond))
				}
				s.metrics.breakerState.Set(1)
				timer.Reset(wait)
			} else {
				s.logger.Error("periodic refresh failed; serving previous tables",
					"err", err, "consecutive", s.breaker.ConsecutiveFailures())
				timer.Reset(s.cfg.RefreshEvery)
			}
		}
	}
}

// Wire formats.

// PointJSON is one bid/duration pair on the wire.
type PointJSON struct {
	Bid             float64 `json:"bid_usd_per_hour"`
	DurationSeconds float64 `json:"guaranteed_duration_seconds"`
}

// TableJSON is a bid table on the wire.
type TableJSON struct {
	Zone         string      `json:"zone"`
	InstanceType string      `json:"instance_type"`
	Probability  float64     `json:"probability"`
	At           time.Time   `json:"as_of"`
	Points       []PointJSON `json:"points"`
}

func toJSON(c spot.Combo, t core.BidTable) TableJSON {
	out := TableJSON{
		Zone:         string(c.Zone),
		InstanceType: string(c.Type),
		Probability:  t.Probability,
		At:           t.At,
	}
	for _, p := range t.Points {
		out.Points = append(out.Points, PointJSON{
			Bid:             p.Bid,
			DurationSeconds: p.Duration.Seconds(),
		})
	}
	return out
}

// FromJSON converts a wire table back to the core representation.
func FromJSON(tj TableJSON) (spot.Combo, core.BidTable) {
	t := core.BidTable{At: tj.At, Probability: tj.Probability}
	for _, p := range tj.Points {
		t.Points = append(t.Points, core.BidPoint{
			Bid:      p.Bid,
			Duration: time.Duration(p.DurationSeconds * float64(time.Second)),
		})
	}
	return spot.Combo{Zone: spot.Zone(tj.Zone), Type: spot.InstanceType(tj.InstanceType)}, t
}

// Handler returns the REST API.
//
//	GET /healthz                  -> {"status":"ok","tables":N,...}
//	GET /v1/combos                -> [{"zone":..., "instance_type":...}, ...]
//	GET /v1/predictions?zone=Z&type=T&probability=P -> TableJSON
//	GET /v1/tables?combos=Z/T,Z/T&probability=P     -> [TableJSON, ...]
//	GET /v1/advise?zone=Z&type=T&probability=P&duration=2h -> QuoteJSON
//	POST /v1/fleet {"duration":"12h","count":5,...}        -> FleetResponse
//
// Every /v1 read is answered from the installed epoch, and before the
// first one installs it is refused 503/stale. /v1/combos, /v1/predictions,
// and /v1/tables serve pre-encoded responses with a strong ETag derived
// from the refresh epoch; requests carrying a matching If-None-Match
// receive 304 Not Modified. Cached /v1/predictions and /v1/advise GETs
// perform zero heap allocations (/v1/advise answers from the epoch's
// precomputed surfaces; see handleAdvise).
//
// Errors are reported as the uniform JSON envelope documented in
// errors.go; every /v1 error body decodes into the same
// {"error":{"code","message","request_id"}} shape.
//
// With a metrics registry configured, every request is recorded in
// drafts_http_requests_total and drafts_http_request_seconds; with
// MaxConcurrent configured, /v1/* requests pass weighted admission control
// and overflow is shed with 503/overloaded + Retry-After. With a Tenants
// registry configured, every /v1 request must present an API key
// (401/unauthenticated otherwise) and passes the tenant's token bucket
// and inflight cap (429/rate_limited) before the shared semaphore;
// authenticated cached GETs remain zero-allocation, including per-account
// zone views (precomputed at refresh; see blob.go). With a Tracer
// configured, every request is traced, GET /debug/flight serves the
// flight recorder (admission-exempt, like /healthz), and X-Request-Id is
// the trace ID. All of it runs in the same middleware (wrap); with none
// configured the bare mux is returned. Cached /v1/predictions GETs
// perform zero heap allocations on the bare mux and on the tracing-only
// configuration (unsampled requests).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	mux.HandleFunc("GET /v1/combos", s.handleCombos)
	mux.HandleFunc("GET /v1/predictions", s.handlePredictions)
	mux.HandleFunc("GET /v1/tables", s.handleTables)
	mux.HandleFunc("GET /v1/advise", s.handleAdvise)
	mux.HandleFunc("POST /v1/fleet", s.handleFleet)
	return s.wrap(mux)
}

// handleFlight serves the flight recorder: the most recent completed
// traces plus every retained error/shed/slow trace, newest first, with
// the tracer's counters. The payload is bounded by the ring capacities,
// and the route is deliberately outside /v1/ so admission control never
// sheds it — it must answer precisely when the service is degraded.
func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Tracer == nil {
		writeErr(w, http.StatusNotFound, codeNotFound, "tracing is not enabled")
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Tracer.Report())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// staleAfter is how old the table set may grow before /healthz reports it
// stale: two refresh periods means at least one whole cycle failed or hung.
func (s *Server) staleAfter() time.Duration {
	return 2 * s.cfg.RefreshEvery
}

// handleHealth reports the serving state. Status is one of:
//
//	"empty"     no tables computed yet (cold start in progress)
//	"ok"        fresh tables, refresh loop healthy
//	"degraded"  serving, but impaired: the tables have aged past two
//	            refresh periods, or the refresh circuit breaker is open
//	            (or both — the usual refresh-outage combination)
//
// A single "degraded" state rather than flapping per-request judgments is
// what orchestrators should alert on; the stale bool and breaker field
// break down which impairment applies.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	lastErr := s.lastErr
	s.mu.Unlock()
	breaker := s.breakerState()
	var (
		n     int
		asOf  time.Time
		epoch uint64
	)
	if et := s.blobs.Load(); et != nil {
		n, asOf, epoch = len(et.tables), et.asOf, et.seq
	}
	resp := map[string]any{"status": "ok", "tables": n, "as_of": asOf,
		"role": s.role, "epoch": epoch}
	stale := true
	if asOf.IsZero() {
		resp["status"] = "empty"
	} else {
		age := time.Since(asOf)
		resp["as_of_age_seconds"] = age.Seconds()
		stale = age > s.staleAfter()
		if stale || breaker != resilience.Closed {
			resp["status"] = "degraded"
		}
	}
	resp["stale"] = stale
	resp["breaker"] = breaker.String()
	if lastErr != "" {
		resp["last_refresh_error"] = lastErr
	}
	writeJSON(w, http.StatusOK, resp)
}

type comboJSON struct {
	Zone         string `json:"zone"`
	InstanceType string `json:"instance_type"`
}

// QuoteJSON is a bid recommendation on the wire.
type QuoteJSON struct {
	Zone            string  `json:"zone"`
	InstanceType    string  `json:"instance_type"`
	Probability     float64 `json:"probability"`
	Bid             float64 `json:"bid_usd_per_hour"`
	DurationSeconds float64 `json:"guaranteed_duration_seconds"`
}

// resolveCombo validates a per-combo read and resolves it to the account
// it is answered for, writing the error response itself: the zone the
// client addressed (visible), the canonical combo it names, the applicable
// account ("" for none), and the probability level.
//
// The account is derived from the authenticated tenant when the server has
// a tenant registry; the legacy ?account= parameter survives only as a
// deprecated alias that must match the tenant's account (the response then
// carries Deprecation and Sunset headers). Without a registry ?account=
// keeps its historical meaning unchanged.
func (s *Server) resolveCombo(w http.ResponseWriter, q readQuery) (visible spot.Zone, combo spot.Combo, account string, prob float64, ok bool) {
	if q.zone == "" || q.typ == "" {
		writeErr(w, http.StatusBadRequest, codeInvalidArgument, "zone and type are required")
		return
	}
	prob, err := strconv.ParseFloat(q.prob, 64)
	if err != nil || !(prob > 0 && prob < 1) {
		writeErr(w, http.StatusBadRequest, codeInvalidArgument, "invalid probability %q", q.prob)
		return
	}
	visible = spot.Zone(q.zone)
	combo = spot.Combo{Zone: visible, Type: spot.InstanceType(q.typ)}
	tn := tenantOf(w)
	account = q.account
	if account != "" && s.tenants != nil {
		// Deprecated alias: tolerated only when it names the authenticated
		// tenant's own account — anything else is a cross-tenant probe.
		if tn == nil || tn.Account != account {
			writeErr(w, http.StatusForbidden, codePermissionDenied,
				"account %q does not match the authenticated tenant", account)
			return
		}
		markAccountParamDeprecated(w)
	}
	if account == "" && tn != nil {
		account = tn.Account
	}
	if account != "" {
		m, found := s.cfg.AccountMappings[account]
		if !found {
			if tn != nil && account == tn.Account {
				// A tenant whose account has no mapping configured sees the
				// canonical view rather than being locked out.
				return visible, combo, account, prob, true
			}
			writeErr(w, http.StatusForbidden, codePermissionDenied, "no zone mapping configured for account %q", account)
			return
		}
		if combo.Zone, err = m.Physical(visible); err != nil {
			writeErr(w, http.StatusBadRequest, codeInvalidArgument, "account %q: %v", account, err)
			return
		}
	}
	return visible, combo, account, prob, true
}
