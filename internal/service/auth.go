package service

import (
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/drafts-go/drafts/internal/tenant"
)

// errRateLimited marks a 429'd request's trace so it lands in the flight
// recorder's error ring like a shed request does.
var errRateLimited = errors.New("tenant rate limit exceeded")

// Tenant authentication and per-tenant limiting run inside serve(), before
// the shared admission semaphore: a tenant over its own quota is refused
// with 429 rate_limited without ever holding an admission slot, so one
// abusive key cannot starve compliant tenants behind the semaphore. The
// order is identity -> token bucket -> weighted concurrency share ->
// shared admission. All of it is allocation-free on the admit path: the
// key is read straight from the header map, hashed through a stack buffer
// (tenant.Registry.Lookup), and the resolved *tenant.Tenant rides the
// pooled statusWriter exactly like the request's trace does.

// bearerPrefix is the Authorization scheme the v1 API accepts.
const bearerPrefix = "Bearer "

// wwwAuthenticate is stamped on every 401 so generic clients know the
// scheme; the value is constant, so the cold path shares one allocation.
var wwwAuthenticate = []string{`Bearer realm="drafts"`}

// accountDeprecation / accountSunset document the ?account= alias's
// lifecycle (RFC 9745 / RFC 8594): deprecated as of 2026-08-01, removal no
// earlier than 2027-08-01. API.md's "Authentication & limits" section is
// the human-readable half of this contract.
const (
	accountDeprecation = "@1785542400"                   // 2026-08-01T00:00:00Z
	accountSunset      = "Sun, 01 Aug 2027 00:00:00 GMT" // earliest removal
)

// markAccountParamDeprecated stamps the deprecation headers on a response
// that honoured the legacy ?account= alias.
func markAccountParamDeprecated(w http.ResponseWriter) {
	h := w.Header()
	h.Set("Deprecation", accountDeprecation)
	h.Set("Sunset", accountSunset)
}

// tenantOf recovers the authenticated tenant from the middleware's pooled
// writer. Bare handlers (tests, no middleware) and anonymous servers get
// nil.
//
//drafts:nonalloc
func tenantOf(w http.ResponseWriter) *tenant.Tenant {
	if sw, ok := w.(*statusWriter); ok {
		return sw.tenant
	}
	return nil
}

// tenantAccount is the authenticated tenant's account: "" on anonymous
// servers and for accountless tenants.
//
//drafts:nonalloc
func tenantAccount(w http.ResponseWriter) string {
	if tn := tenantOf(w); tn != nil {
		return tn.Account
	}
	return ""
}

// authenticate resolves the request's API key to a registered tenant,
// writing the 401 unauthenticated envelope (with WWW-Authenticate) itself
// when the key is missing, malformed, unknown, or revoked. The happy path
// allocates nothing: the Bearer token is a substring of the header value
// and Lookup hashes it on the stack.
func (s *Server) authenticate(sw *statusWriter, r *http.Request) *tenant.Tenant {
	key := r.Header.Get("Authorization")
	if key != "" {
		if !strings.HasPrefix(key, bearerPrefix) {
			s.authFail(sw, "malformed Authorization header; expected Bearer <key>")
			return nil
		}
		key = key[len(bearerPrefix):]
	} else {
		key = r.Header.Get("X-Api-Key")
	}
	if key == "" {
		s.authFail(sw, "missing API key; send Authorization: Bearer <key> or X-Api-Key")
		return nil
	}
	tn := s.tenants.Lookup(key)
	if tn == nil {
		s.authFail(sw, "unknown API key")
		return nil
	}
	if tn.Revoked {
		s.authFail(sw, "API key revoked")
		return nil
	}
	return tn
}

// authFail writes the 401 envelope. Like every error path it may
// allocate; only admitted requests stay on the zero-allocation contract.
func (s *Server) authFail(sw *statusWriter, msg string) {
	sw.Header()["Www-Authenticate"] = wwwAuthenticate
	s.metrics.authFailures.Inc()
	writeErr(sw, http.StatusUnauthorized, codeUnauthenticated, "%s", msg)
}

// admitTenant enforces the tenant's own limits — token bucket first, then
// the weighted concurrency share — writing the 429 rate_limited envelope
// with Retry-After and the RateLimit-* headers on refusal. A true return
// means the tenant holds one concurrency slot the caller must release.
func (s *Server) admitTenant(sw *statusWriter, route string, tn *tenant.Tenant) bool {
	if ok, retry := tn.Allow(); !ok {
		s.rateLimited(sw, route, tn, retry, "tenant %q is over its request rate", tn.ID)
		return false
	}
	if !tn.AcquireSlot() {
		s.rateLimited(sw, route, tn, time.Second, "tenant %q is over its concurrency share", tn.ID)
		return false
	}
	tn.MarkRequest()
	return true
}

// rateLimited writes one 429 refusal. RateLimit-Limit/-Remaining/-Reset
// follow the IETF RateLimit header fields draft: the steady-state
// per-second limit, zero remaining (the refusal proves it), and whole
// seconds until the next token accrues; Retry-After carries the same
// rounded-up hint for clients that only speak HTTP/1.1 semantics.
func (s *Server) rateLimited(sw *statusWriter, route string, tn *tenant.Tenant, retry time.Duration, format string, args ...any) {
	secs := int64((retry + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	h := sw.Header()
	reset := strconv.FormatInt(secs, 10)
	h.Set("Retry-After", reset)
	h.Set("Ratelimit-Limit", strconv.FormatFloat(tn.Limit(), 'g', -1, 64))
	h.Set("Ratelimit-Remaining", "0")
	h.Set("Ratelimit-Reset", reset)
	tn.MarkLimited()
	s.metrics.rateLimited.Inc()
	sw.tr.Fail(errRateLimited)
	writeErr(sw, http.StatusTooManyRequests, codeRateLimited, format, args...)
	s.logger.Debug("request rate-limited",
		"route", route, "tenant", tn.ID, "request_id", sw.requestID())
}
