package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/drafts-go/drafts/internal/resilience"
	"github.com/drafts-go/drafts/internal/trace"
)

// requestIDHeader is propagated end to end: the middleware honours an
// inbound value (so a gateway's ID survives), derives one from the trace
// ID when tracing is on (so the log line, the error envelope, and the
// flight-recorder entry all carry the same identifier), or assigns a
// random one. writeErr echoes it in every error envelope.
const requestIDHeader = "X-Request-Id"

// traceparentHeader carries W3C trace context. The canonical MIME
// spelling is used so direct header-map reads and writes never
// re-canonicalize (which would allocate).
const traceparentHeader = "Traceparent"

// maxRequestIDLen bounds an inbound request ID so a hostile client cannot
// balloon logs or responses.
const maxRequestIDLen = 64

// fleetWeight is the admission weight of /v1/fleet: a fleet query looks
// up a surface per catalog combo, so it consumes proportionally more of
// the concurrency budget. Every other /v1 read, /v1/advise included (one
// surface lookup), weighs 1. The value is the measured cost ratio of
// BenchmarkFleetCatalog (a 10-row page over 452 combos) to
// BenchmarkPredictionsEncoded (a cached GET): 28.3, the median of 13
// runs (25.3-33.2) on a 2-vCPU Xeon VM. The ratio grows with the
// catalog, one lookup per combo.
const fleetWeight = 28

// requestID returns the correlation ID for r: the inbound X-Request-Id
// when the caller sent one (a gateway's ID survives), the 32-hex trace ID
// when tracing is on, or a freshly generated random ID.
func requestID(r *http.Request, tr *trace.Trace) string {
	if id := r.Header.Get(requestIDHeader); id != "" {
		if len(id) > maxRequestIDLen {
			id = id[:maxRequestIDLen]
		}
		return id
	}
	if id := tr.IDString(); id != "" {
		return id
	}
	return randomRequestID()
}

// randomRequestID is the no-tracer fallback: 8 random bytes, hex.
func randomRequestID() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(buf[:])
}

// traceOf recovers the request's trace from the middleware's pooled
// writer. Bare handlers (tests, no middleware) get nil, whose methods all
// no-op.
//
//drafts:nonalloc
func traceOf(w http.ResponseWriter) *trace.Trace {
	if sw, ok := w.(*statusWriter); ok {
		return sw.tr
	}
	return nil
}

// wrap is the service's single middleware: tracing, request-ID
// propagation, admission control, panic containment, and request metrics.
// When none of those are configured it returns the mux untouched.
//
// The zero-allocation contract extends to tracing: with a Tracer
// configured but no metrics registry or admission control, an unsampled
// cached GET still performs zero heap allocations. That requires lazy
// correlation headers — a per-request unique header value is inherently
// an allocation — so a bare tracing server stamps X-Request-Id and
// Traceparent only on error responses and on requests that carried
// correlation headers of their own (a remote traceparent or an inbound
// X-Request-Id). Instrumented (metrics/admission) servers keep the
// historical stamp-on-every-response contract.
func (s *Server) wrap(mux *http.ServeMux) http.Handler {
	if !s.metrics.on && s.sem == nil && s.cfg.Tracer == nil && s.tenants == nil {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var began time.Time
		if s.metrics.on {
			began = time.Now()
		}
		tr := s.cfg.Tracer.StartRequest(r.Header.Get(traceparentHeader))
		defer tr.End()
		// The mux pattern gives metrics their bounded route label; a bare
		// tracing server skips the second route resolution and labels the
		// flight entry with the raw path.
		var route string
		if s.metrics.on || s.sem != nil {
			_, pattern := mux.Handler(r)
			route = routeLabel(pattern)
		} else {
			route = r.URL.Path
		}
		tr.SetRoute(route)
		sw := statusWriterPool.Get().(*statusWriter)
		sw.ResponseWriter = w
		sw.status = http.StatusOK
		sw.wrote = false
		sw.tr = tr
		sw.rid = ""
		sw.tenant = nil
		if s.metrics.on || s.sem != nil || tr.Remote() ||
			r.Header.Get(requestIDHeader) != "" {
			rid := requestID(r, tr)
			sw.rid = rid
			h := w.Header()
			h[requestIDHeader] = []string{rid}
			// Traceparent is echoed only where it means something: to a
			// caller already participating in the trace, or when the trace
			// is retained server-side (sampled now; errors stamp later in
			// writeErr). An unsampled local trace's traceparent points at
			// nothing, and formatting it would tax every request.
			if tr.Remote() || tr.Sampled() {
				if tp := tr.Traceparent(); tp != "" {
					h[traceparentHeader] = []string{tp}
				}
			}
		}
		s.serve(sw, r, mux, route)
		status := sw.status
		rid := sw.rid
		tr.SetStatus(status)
		sw.tr = nil
		sw.rid = ""
		sw.tenant = nil
		sw.ResponseWriter = nil
		statusWriterPool.Put(sw)
		if s.metrics.on {
			s.metrics.requests.With(route, statusClass(status)).Inc()
			s.metrics.latency.With(route).Observe(time.Since(began).Seconds())
		}
		if status >= http.StatusInternalServerError {
			s.logger.Warn("request failed",
				"route", route, "status", status, "request_id", rid)
		}
	})
}

// serve runs one request through admission control and the mux, containing
// handler panics to a 500 internal envelope.
func (s *Server) serve(sw *statusWriter, r *http.Request, mux *http.ServeMux, route string) {
	defer func() {
		if v := recover(); v != nil {
			sw.tr.Fail(fmt.Errorf("handler panic: %v", v))
			s.logger.Error("handler panic",
				"route", route, "request_id", sw.requestID(), "panic", v)
			if !sw.wrote {
				writeErr(sw, http.StatusInternalServerError, codeInternal,
					"internal error")
			}
		}
	}()
	// Tenant identity and per-tenant limits guard /v1/* only, and run
	// before shared admission so a tenant over quota is 429'd without
	// holding an admission slot (that priority is what keeps admission
	// fair; see TestTenantFairnessChaos).
	if s.tenants != nil && strings.HasPrefix(r.URL.Path, "/v1/") {
		tn := s.authenticate(sw, r)
		if tn == nil {
			return
		}
		sw.tenant = tn
		if !s.admitTenant(sw, route, tn) {
			return
		}
		defer tn.ReleaseSlot()
	}
	// Admission control guards /v1/* only: health, metrics, and
	// /debug/flight probes must keep answering precisely when the service
	// is saturated.
	if s.sem != nil && strings.HasPrefix(r.URL.Path, "/v1/") {
		weight := int64(1)
		if route == "/v1/fleet" {
			weight = fleetWeight
		}
		ctx := r.Context()
		if s.cfg.QueueWait > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.QueueWait)
			defer cancel()
		}
		sp := sw.tr.StartSpan("admission.wait")
		err := s.sem.Acquire(ctx, weight)
		sp.EndErr(err)
		if err != nil {
			s.shed(sw, route, err)
			return
		}
		defer s.sem.Release(weight)
	}
	sp := sw.tr.StartSpan("handler")
	mux.ServeHTTP(sw, r)
	sp.End()
}

// shed answers an unadmitted request: 503, the overloaded error code, and
// a Retry-After hint so well-behaved clients back off instead of hammering.
// The trace is failed with the admission error, which forces it into the
// flight recorder's error ring regardless of sampling — a shed request is
// exactly the one someone will come looking for.
func (s *Server) shed(sw *statusWriter, route string, err error) {
	sw.tr.Fail(err)
	setRetryAfter(sw)
	writeErr(sw, http.StatusServiceUnavailable, codeOverloaded,
		"request shed: %v", err)
	s.metrics.shed.With(route).Inc()
	s.logger.Debug("request shed",
		"route", route, "request_id", sw.requestID(), "err", err)
}

// setRetryAfter stamps the Retry-After hint on a 503 the client should
// retry.
func setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
}

// checkStaleness applies the serve-stale policy to a read answered from
// the epoch installed at asOf. Fresh epochs pass untouched (no header, no
// allocation). Past staleAfter the response is still served but marked
// with X-Drafts-Staleness (whole seconds); past MaxStaleness — when one is
// configured — the read is refused with 503/stale, because a guarantee
// computed from sufficiently old prices is no guarantee at all. Returns
// false after writing the refusal.
func (s *Server) checkStaleness(w http.ResponseWriter, asOf time.Time) bool {
	if asOf.IsZero() {
		return true // no epoch: the handler's own empty-state error stands
	}
	age := time.Since(asOf)
	if age <= s.staleAfter() {
		return true
	}
	if s.cfg.MaxStaleness > 0 && age > s.cfg.MaxStaleness {
		setRetryAfter(w)
		writeErr(w, http.StatusServiceUnavailable, codeStale,
			"tables are %s old, beyond the %s staleness bound",
			age.Round(time.Second), s.cfg.MaxStaleness)
		return false
	}
	w.Header().Set(stalenessHeader, strconv.FormatInt(int64(age/time.Second), 10))
	s.metrics.staleResponses.Inc()
	return true
}

// stalenessHeader marks responses served from tables older than the
// degraded threshold; its value is the table age in whole seconds.
const stalenessHeader = "X-Drafts-Staleness"

// breakerState exposes the refresh breaker's position to healthz and the
// metrics gauge.
func (s *Server) breakerState() resilience.BreakerState {
	return s.breaker.State()
}
