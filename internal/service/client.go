package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/hashring"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/trace"
)

// Client is a typed client for the DrAFTS prediction service — what the
// modified Globus Galaxies provisioner used to fetch "the DrAFTS graph for
// each instance type from the DrAFTS service" (§4.3).
type Client struct {
	// BaseURL of the service, e.g. "http://localhost:8732".
	BaseURL string
	// APIKey, when set, authenticates every request as a registered tenant
	// (Authorization: Bearer <key>). Required against servers running with
	// a tenant registry; ignored by anonymous servers.
	APIKey string
	// Account, when set, is sent with prediction requests so the service
	// translates this account's obfuscated zone names (§2.2, §3.3).
	// Deprecated against authenticated servers: the tenant's account is
	// derived from APIKey, and an explicit mismatch is refused with
	// permission_denied. Prefer APIKey alone.
	Account string
	// Timeout bounds each request attempt (default 30 seconds). Ignored
	// when HTTPClient is set.
	Timeout time.Duration
	// Retries is how many extra attempts follow a retryable failure — a
	// transport error, an "overloaded", "stale", or "rate_limited" API
	// error, or a 502/503/504 — before giving up. Each retry backs off exponentially
	// from RetryBackoff with ±50% jitter, never sleeping less than the
	// server's Retry-After hint. Application errors (4xx, 5xx other than
	// the above) never retry.
	Retries int
	// RetryBackoff is the base delay before the first retry (default
	// 250ms).
	RetryBackoff time.Duration
	// HTTPClient defaults to a client with Timeout.
	HTTPClient *http.Client
	// Tracer, when non-nil, traces each logical request (all retry
	// attempts share one trace) and injects the W3C traceparent header so
	// draftsctl-originated traces cross the wire: the server
	// adopts the client's trace ID, and its X-Request-Id — in logs, error
	// envelopes, and /debug/flight — matches the ID the client holds.
	Tracer *trace.Tracer
	// Replicas, when non-empty, enables client-side read routing: the
	// client hashes each keyed read (a combo, for /v1/predictions and
	// /v1/tables) onto a consistent-hash ring over these base URLs — the
	// same FNV ring the cluster router uses, so client-routed and
	// router-fronted fleets place keys identically. Retries walk the
	// ring clockwise (the node that would own the key next), then fall
	// back to BaseURL; unkeyed reads (/v1/combos, /debug/flight) and
	// /v1/advise (only the writer holds predictors) go to BaseURL as
	// always. The per-code retry rules are unchanged — routing only
	// changes WHERE each attempt goes.
	Replicas []string

	// sleep is the retry delay; tests stub it to run instantly.
	sleep func(time.Duration)

	ringOnce sync.Once
	ring     *hashring.Ring
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &http.Client{Timeout: timeout}
}

// APIError is a non-200 response from the service, decoded from the v1
// error envelope when one is present. Callers unwrap it with errors.As and
// switch on Code (the closed vocabulary documented in errors.go) rather
// than parsing message text; RequestID ties the failure to the server-side
// log line that explains it.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable error code ("invalid_argument",
	// "unauthenticated", "permission_denied", "not_found", "rate_limited",
	// "overloaded", "stale", "internal"), empty when the response carried
	// no envelope (a proxy's bare 502, an old server).
	Code string
	// Message is the human-readable description.
	Message string
	// RequestID echoes the X-Request-ID the server assigned, when present.
	RequestID string
	// RetryAfter is the server's Retry-After hint, zero when absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	var b strings.Builder
	b.WriteString("service client: ")
	b.WriteString(strconv.Itoa(e.Status))
	b.WriteByte(' ')
	b.WriteString(http.StatusText(e.Status))
	if e.Code != "" {
		b.WriteString(" (")
		b.WriteString(e.Code)
		b.WriteByte(')')
	}
	if e.Message != "" {
		b.WriteString(": ")
		b.WriteString(e.Message)
	}
	if e.RequestID != "" {
		b.WriteString(" [request ")
		b.WriteString(e.RequestID)
		b.WriteByte(']')
	}
	return b.String()
}

// retryable reports whether err is worth another attempt: transport-level
// failures (connection refused, timeout — the *url.Error wrapping), API
// errors that name a transient condition ("overloaded" admission shed,
// "stale" cold start, "rate_limited" quota refusal — all clear on their
// own; the Retry-After floor keeps a rate-limited retry from burning the
// remaining budget inside one refill window), and the bare gateway
// statuses a proxy in front of a restarting service returns.
func retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.Code {
		case codeOverloaded, codeStale, codeRateLimited:
			return true
		case "":
			return ae.Status == http.StatusBadGateway ||
				ae.Status == http.StatusServiceUnavailable ||
				ae.Status == http.StatusGatewayTimeout
		}
		return false
	}
	_, transport := err.(*url.Error)
	return transport
}

// retryAfter extracts the server's Retry-After floor from err, zero when
// none applies.
func retryAfter(err error) time.Duration {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.RetryAfter
	}
	return 0
}

func (c *Client) get(path string, query url.Values, out any) error {
	return c.getKeyed("", path, query, out)
}

// GetJSON performs one GET against the service with the client's full
// retry/backoff/tracing machinery and decodes the JSON response into out.
// It exists for endpoints outside the typed surface — draftsctl's cluster
// status rendering being the canonical caller.
func (c *Client) GetJSON(path string, query url.Values, out any) error {
	return c.getKeyed("", path, query, out)
}

// bases returns the base URLs to try, in order, for a read placed by key.
// With no replica list (or no key) every attempt goes to BaseURL; with
// one, attempts walk the key's ring candidates — owner first, then the
// nodes that would inherit the key — and BaseURL is the last resort when
// it is not already on the ring.
func (c *Client) bases(key string) []string {
	if len(c.Replicas) == 0 || key == "" {
		return []string{c.BaseURL}
	}
	c.ringOnce.Do(func() {
		c.ring = hashring.New(0, c.Replicas...)
	})
	out := c.ring.Candidates(key, c.ring.Len())
	for _, b := range out {
		if b == c.BaseURL {
			return out
		}
	}
	return append(out, c.BaseURL)
}

// getKeyed is get with read placement: key (a combo, normally) selects
// which node each attempt targets via the client-side ring.
func (c *Client) getKeyed(key, path string, query url.Values, out any) error {
	return c.doKeyed(http.MethodGet, key, path, query, nil, out)
}

// doKeyed is the request engine behind every typed call: method + body
// generalize getKeyed so POST endpoints (/v1/fleet) share the identical
// retry/backoff/placement/tracing machinery. A non-nil body is replayed
// from a fresh reader on every attempt.
func (c *Client) doKeyed(method, key, path string, query url.Values, body []byte, out any) (err error) {
	bases := c.bases(key)
	targets := make([]string, len(bases))
	for i, base := range bases {
		u, uerr := url.Parse(base)
		if uerr != nil {
			return fmt.Errorf("service client: bad base URL %q: %w", base, uerr)
		}
		u.Path = path
		u.RawQuery = query.Encode()
		targets[i] = u.String()
	}

	tr := c.Tracer.StartTrace("client")
	defer tr.End()
	tr.SetRoute(path)
	defer func() { tr.Fail(err) }() // Fail(nil) no-ops; runs before End

	backoff := c.RetryBackoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	sleep := c.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var rng *rand.Rand
	var lastErr error
	for attempt := 0; ; attempt++ {
		lastErr = c.doOnce(method, targets[attempt%len(targets)], tr, body, out)
		if lastErr == nil || attempt >= c.Retries || !retryable(lastErr) {
			return lastErr
		}
		// Exponential backoff with ±50% jitter so a fleet of clients
		// retrying against a restarting service doesn't stampede it. The
		// server's Retry-After hint is a floor, never a ceiling: backing
		// off longer than asked is always safe.
		d := backoff << attempt
		if rng == nil {
			rng = rand.New(rand.NewSource(time.Now().UnixNano()))
		}
		wait := d/2 + time.Duration(rng.Int63n(int64(d)))
		if floor := retryAfter(lastErr); wait < floor {
			wait = floor
		}
		sleep(wait)
	}
}

func (c *Client) doOnce(method, target string, tr *trace.Trace, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, target, rd)
	if err != nil {
		return fmt.Errorf("service client: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.APIKey != "" {
		req.Header.Set("Authorization", bearerPrefix+c.APIKey)
	}
	// Retries reuse the logical request's trace: every attempt carries the
	// same trace ID, so the server-side record of a retried request is one
	// joined story rather than unrelated fragments.
	if tp := tr.Traceparent(); tp != "" {
		req.Header.Set(traceparentHeader, tp)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeAPIError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeAPIError builds the *APIError for a non-200 response. It decodes
// the v1 envelope, falls back to the pre-envelope {"error": "..."} shape
// older servers emit, and degrades to status-only for non-JSON bodies (a
// proxy's HTML 502 page). The body read is bounded: an error response is
// small by construction.
func decodeAPIError(resp *http.Response) *APIError {
	ae := &APIError{
		Status:    resp.StatusCode,
		RequestID: resp.Header.Get(requestIDHeader),
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if err != nil {
		return ae
	}
	var env struct {
		Error json.RawMessage `json:"error"`
	}
	if json.Unmarshal(body, &env) != nil || len(env.Error) == 0 {
		return ae
	}
	var det errorDetail
	if json.Unmarshal(env.Error, &det) == nil && (det.Code != "" || det.Message != "") {
		ae.Code = det.Code
		ae.Message = det.Message
		if ae.RequestID == "" {
			ae.RequestID = det.RequestID
		}
		return ae
	}
	var legacy string
	if json.Unmarshal(env.Error, &legacy) == nil {
		ae.Message = legacy
	}
	return ae
}

// Combos lists every (zone, type) the service has tables for.
func (c *Client) Combos() ([]spot.Combo, error) {
	var raw []comboJSON
	if err := c.get("/v1/combos", nil, &raw); err != nil {
		return nil, err
	}
	out := make([]spot.Combo, len(raw))
	for i, r := range raw {
		out[i] = spot.Combo{Zone: spot.Zone(r.Zone), Type: spot.InstanceType(r.InstanceType)}
	}
	return out, nil
}

// Predictions fetches the bid table for a combo at a probability level.
func (c *Client) Predictions(combo spot.Combo, probability float64) (core.BidTable, error) {
	q := url.Values{}
	q.Set("zone", string(combo.Zone))
	q.Set("type", string(combo.Type))
	q.Set("probability", strconv.FormatFloat(probability, 'f', -1, 64))
	if c.Account != "" {
		q.Set("account", c.Account)
	}
	var tj TableJSON
	key := string(combo.Zone) + "/" + string(combo.Type)
	if err := c.getKeyed(key, "/v1/predictions", q, &tj); err != nil {
		return core.BidTable{}, err
	}
	_, table := FromJSON(tj)
	return table, nil
}

// Tables fetches several combos' bid tables in one round trip via the
// batch endpoint (GET /v1/tables), returned in request order. Combos are
// addressed by their canonical names as listed by Combos; the batch
// endpoint does not translate account-obfuscated zones, so Account is not
// sent.
func (c *Client) Tables(combos []spot.Combo, probability float64) ([]TableJSON, error) {
	if len(combos) == 0 {
		return nil, fmt.Errorf("service client: no combos requested")
	}
	parts := make([]string, len(combos))
	for i, combo := range combos {
		parts[i] = combo.String()
	}
	q := url.Values{}
	q.Set("combos", strings.Join(parts, ","))
	q.Set("probability", strconv.FormatFloat(probability, 'f', -1, 64))
	var out []TableJSON
	if err := c.getKeyed(parts[0], "/v1/tables", q, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Advise asks the service directly for the smallest bid guaranteeing the
// duration; unlike BidFor it can escalate beyond the published table span.
func (c *Client) Advise(combo spot.Combo, probability float64, d time.Duration) (core.Quote, error) {
	q := url.Values{}
	q.Set("zone", string(combo.Zone))
	q.Set("type", string(combo.Type))
	q.Set("probability", strconv.FormatFloat(probability, 'f', -1, 64))
	q.Set("duration", d.String())
	if c.Account != "" {
		q.Set("account", c.Account)
	}
	var qj QuoteJSON
	if err := c.get("/v1/advise", q, &qj); err != nil {
		return core.Quote{}, err
	}
	return core.Quote{
		Bid:         qj.Bid,
		Duration:    time.Duration(qj.DurationSeconds * float64(time.Second)),
		Probability: qj.Probability,
	}, nil
}

// Fleet asks the catalog-wide advisor (POST /v1/fleet) for the cheapest
// compliant combos carrying the request's duration at its probability.
// Any surface-bearing node answers identically for the same epoch, so
// with Replicas configured the call is placed on the ring under the
// stable key "/v1/fleet" (retries walk the ring like every keyed read).
// Page through deep result sets by feeding each response's NextCursor
// back as the next request's Cursor.
func (c *Client) Fleet(req FleetRequest) (FleetResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return FleetResponse{}, fmt.Errorf("service client: encoding fleet request: %w", err)
	}
	var resp FleetResponse
	if err := c.doKeyed(http.MethodPost, "/v1/fleet", "/v1/fleet", nil, body, &resp); err != nil {
		return FleetResponse{}, err
	}
	return resp, nil
}

// Flight fetches the server's flight recorder: the most recent completed
// traces plus every retained error/shed/slow trace (GET /debug/flight).
func (c *Client) Flight() (trace.Report, error) {
	var rep trace.Report
	if err := c.get("/debug/flight", nil, &rep); err != nil {
		return trace.Report{}, err
	}
	return rep, nil
}

// BidFor is the common client workflow: fetch the table and pick the
// smallest bid guaranteeing duration d.
func (c *Client) BidFor(combo spot.Combo, probability float64, d time.Duration) (float64, error) {
	table, err := c.Predictions(combo, probability)
	if err != nil {
		return 0, err
	}
	bid, ok := table.BidFor(d)
	if !ok {
		return 0, fmt.Errorf("service client: no tabulated bid guarantees %v for %s", d, combo)
	}
	return bid, nil
}
