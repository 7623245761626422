package service

import (
	"net/http"
	"strconv"
	"strings"
	"sync"

	"github.com/drafts-go/drafts/internal/telemetry"
	"github.com/drafts-go/drafts/internal/tenant"
	"github.com/drafts-go/drafts/internal/trace"
)

// serviceMetrics holds every instrument the service records. It is always
// non-nil on a Server; with no registry configured every instrument inside
// is nil and each recording site costs one branch (the telemetry-off
// contract), and `on` short-circuits the HTTP middleware entirely.
type serviceMetrics struct {
	on bool

	requests *telemetry.CounterVec   // route, code class
	latency  *telemetry.HistogramVec // route

	refreshDuration    *telemetry.Histogram
	refreshErrors      *telemetry.Counter
	comboErrors        *telemetry.Counter
	combosComputed     *telemetry.Counter
	combosSkipped      *telemetry.Counter
	refreshIncremental *telemetry.Counter
	tables             *telemetry.Gauge
	lastSuccess        *telemetry.Gauge

	notModified    *telemetry.Counter
	encodeDuration *telemetry.Histogram
	blobBytes      *telemetry.Gauge
	batchCombos    *telemetry.Histogram

	shed           *telemetry.CounterVec // route
	staleResponses *telemetry.Counter
	breakerState   *telemetry.Gauge

	authFailures *telemetry.Counter
	rateLimited  *telemetry.Counter
}

func newServiceMetrics(r *telemetry.Registry) *serviceMetrics {
	if r == nil {
		return &serviceMetrics{}
	}
	return &serviceMetrics{
		on: true,
		requests: r.CounterVec("drafts_http_requests_total",
			"HTTP requests served, by route and status class.", "route", "code"),
		latency: r.HistogramVec("drafts_http_request_seconds",
			"HTTP request latency in seconds, by route.", nil, "route"),
		refreshDuration: r.Histogram("drafts_refresh_duration_seconds",
			"Duration of bid-table refresh cycles in seconds.", nil),
		refreshErrors: r.Counter("drafts_refresh_errors_total",
			"Refresh cycles that failed outright (produced no tables)."),
		comboErrors: r.Counter("drafts_refresh_combo_errors_total",
			"Per-combo predictor failures during refresh cycles."),
		combosComputed: r.Counter("drafts_refresh_combos_computed_total",
			"Bid tables successfully computed across refresh cycles."),
		combosSkipped: r.Counter("drafts_refresh_combos_skipped_total",
			"Combos skipped during refresh (no usable history or no table)."),
		refreshIncremental: r.Counter("drafts_refresh_incremental_total",
			"Tables refreshed via the incremental (clone + new ticks) path."),
		tables: r.Gauge("drafts_tables",
			"Bid tables currently being served."),
		lastSuccess: r.Gauge("drafts_last_refresh_success_timestamp_seconds",
			"Unix time of the last successful refresh."),
		notModified: r.Counter("drafts_http_not_modified_total",
			"Conditional GETs answered 304 via If-None-Match."),
		encodeDuration: r.Histogram("drafts_blob_encode_seconds",
			"Time spent pre-encoding the blob store per refresh.", nil),
		blobBytes: r.Gauge("drafts_blob_store_bytes",
			"Total pre-encoded response bytes in the installed blob store."),
		batchCombos: r.Histogram("drafts_batch_combos",
			"Combos requested per /v1/tables batch request.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}),
		shed: r.CounterVec("drafts_http_shed_total",
			"Requests refused by admission control (503 overloaded), by route.", "route"),
		staleResponses: r.Counter("drafts_stale_responses_total",
			"Reads served from tables older than the degraded threshold."),
		breakerState: r.Gauge("drafts_refresh_breaker_state",
			"Refresh circuit breaker position: 0 closed, 1 open, 2 half-open."),
		authFailures: r.Counter("drafts_auth_failures_total",
			"Requests refused 401 unauthenticated (missing, unknown, malformed, or revoked key)."),
		rateLimited: r.Counter("drafts_rate_limited_total",
			"Requests refused 429 rate_limited by per-tenant quotas (all tenants; see drafts_tenant_rate_limited_total)."),
	}
}

// statusWriter captures the status code a handler writes, and whether it
// wrote one at all (the panic-containment path needs to know). It also
// carries the request's trace — handlers and writeErr reach it through a
// type assertion, so the hot path never pays a context.WithValue — and
// the lazily materialized request ID. Handlers here only use
// Header/Write/WriteHeader, so no other interfaces are forwarded.
// Instances are pooled so the instrumented hot path does not allocate a
// wrapper per request.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
	tr     *trace.Trace
	rid    string
	// tenant is the authenticated identity serve() resolved, nil on
	// anonymous servers; handlers reach it through tenantOf the same way
	// they reach the trace through traceOf.
	tenant *tenant.Tenant
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

// requestID lazily materializes the request's correlation ID — the 32-hex
// trace ID when tracing is on, a random ID otherwise — and, when the
// response headers have not been sent yet, stamps X-Request-Id and
// Traceparent so the wire echoes what the envelope and the logs carry.
// Error paths are its only callers: an error trace is always retained by
// the flight recorder, so its traceparent is worth echoing even when the
// middleware's upfront stamp (unsampled, local) withheld it. The
// unsampled success path never builds the strings at all.
func (w *statusWriter) requestID() string {
	if w.rid == "" {
		if id := w.tr.IDString(); id != "" {
			w.rid = id
		} else {
			w.rid = randomRequestID()
		}
		if !w.wrote {
			w.Header()[requestIDHeader] = []string{w.rid}
		}
	}
	if !w.wrote {
		h := w.Header()
		if _, ok := h[traceparentHeader]; !ok {
			if tp := w.tr.Traceparent(); tp != "" {
				h[traceparentHeader] = []string{tp}
			}
		}
	}
	return w.rid
}

var statusWriterPool = sync.Pool{New: func() any { return new(statusWriter) }}

// routeLabel strips the method from a ServeMux pattern ("GET /healthz" ->
// "/healthz"); unmatched requests collapse to "other".
func routeLabel(pattern string) string {
	if pattern == "" {
		return "other"
	}
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		return pattern[i+1:]
	}
	return pattern
}

func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}
