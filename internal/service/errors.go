package service

import (
	"fmt"
	"net/http"
)

// The v1 API reports every error as one uniform JSON envelope:
//
//	{"error":{"code":"...","message":"...","request_id":"..."}}
//
// The code vocabulary is closed — clients switch on it, not on message
// text — and HTTP statuses carry the same meaning they always did; the
// code refines, never contradicts, the status:
//
//	invalid_argument   400        malformed parameters
//	unauthenticated    401        missing, unknown, malformed, or revoked
//	                              API key on a server with a tenant
//	                              registry; WWW-Authenticate is set
//	permission_denied  403        authenticated identity may not use the
//	                              named resource: an ?account= alias that
//	                              does not match the tenant, or an account
//	                              with no zone mapping configured
//	not_found          404, 409   no such table/predictor, or no bid can
//	                              guarantee the requested duration
//	rate_limited       429        the tenant's own token-bucket quota or
//	                              weighted concurrency share refused the
//	                              request; Retry-After and the RateLimit-*
//	                              headers are always set
//	overloaded         503        admission control shed the request;
//	                              Retry-After is always set
//	stale              503        no tables yet (cold start) or the tables
//	                              aged past the configured max staleness
//	internal           500        handler panic or other server defect
//
// request_id echoes the X-Request-ID the middleware assigned (or the
// caller supplied); it is omitted on bare handlers wired without the
// middleware, e.g. in tests.
const (
	codeInvalidArgument  = "invalid_argument"
	codeUnauthenticated  = "unauthenticated"
	codePermissionDenied = "permission_denied"
	codeNotFound         = "not_found"
	codeRateLimited      = "rate_limited"
	codeOverloaded       = "overloaded"
	codeStale            = "stale"
	codeInternal         = "internal"
)

// errorDetail is the envelope's payload.
type errorDetail struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// errorEnvelope is the uniform v1 error body.
type errorEnvelope struct {
	Error errorDetail `json:"error"`
}

// writeErr emits the uniform error envelope. The request ID comes from
// the middleware's statusWriter — materialized from the trace ID at this
// first moment an error needs it when the lazy tracing path withheld it,
// stamping the response headers (X-Request-Id and Traceparent) on the
// way. Handlers never thread it explicitly; bare handlers (no middleware)
// fall back to whatever header a test stamped, usually nothing.
func writeErr(w http.ResponseWriter, status int, code string, format string, args ...any) {
	var rid string
	if sw, ok := w.(*statusWriter); ok {
		rid = sw.requestID()
	} else {
		rid = w.Header().Get(requestIDHeader)
	}
	writeJSON(w, status, errorEnvelope{Error: errorDetail{
		Code:      code,
		Message:   fmt.Sprintf(format, args...),
		RequestID: rid,
	}})
}
