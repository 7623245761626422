package cluster

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strings"

	"github.com/drafts-go/drafts/internal/telemetry"
)

// RouterConfig parameterizes the forwarding read tier.
type RouterConfig struct {
	// Membership supplies the ring.
	Membership *Membership
	// HTTPClient performs forwards (default http.DefaultClient).
	HTTPClient *http.Client
	// Logger receives forward failures. Nil discards them.
	Logger *slog.Logger
}

// Router is the read tier's one placement path: it owns no tables, just
// forwards each read to the ring node that does. Failover walks the ring
// clockwise on the same conditions service.Client retries on: transport
// errors and 502/503/504 (the envelope-less gateway statuses plus the
// overloaded/stale family).
type Router struct {
	cfg RouterConfig
}

// NewRouter validates the configuration.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Membership == nil {
		return nil, fmt.Errorf("cluster: router needs membership")
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.Logger == nil {
		cfg.Logger = telemetry.NopLogger()
	}
	return &Router{cfg: cfg}, nil
}

// routeKey derives the placement key for a request:
//
//	/v1/predictions  zone "/" type   (one combo, the cacheable read)
//	/v1/advise       zone "/" type   (answered from the combo's surface)
//	/v1/tables       the first combo in the batch
//	other            the path itself (stable, spreads uniformly)
//
// An empty key means "any node" (e.g. /v1/combos, identical everywhere).
func routeKey(path, rawQuery string) string {
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		return ""
	}
	switch path {
	case "/v1/predictions", "/v1/advise":
		if z, t := q.Get("zone"), q.Get("type"); z != "" && t != "" {
			return z + "/" + t
		}
	case "/v1/tables":
		combos := q.Get("combos")
		if i := strings.IndexByte(combos, ','); i >= 0 {
			combos = combos[:i]
		}
		if combos != "" {
			return combos
		}
	}
	return ""
}

// ServeHTTP forwards one read to its ring owner.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ring := rt.cfg.Membership.Ring()
	if ring.Len() == 0 {
		httpError(w, http.StatusServiceUnavailable, "stale", "no serving nodes on the ring")
		return
	}
	key := routeKey(r.URL.Path, r.URL.RawQuery)
	if key == "" {
		key = r.URL.Path
	}
	rt.forwardTo(w, r, ring.Candidates(key, ring.Len()))
}

// maxForwardBody bounds how much request body the router buffers for
// replay across failover attempts (POST /v1/fleet bodies are far
// smaller; the cap matches the server's own read limit).
const maxForwardBody = 1 << 20

// forwardTo tries each candidate in ring order, failing over before the
// first response byte is written. A request body is buffered once up
// front so every attempt replays identical bytes.
func (rt *Router) forwardTo(w http.ResponseWriter, r *http.Request, candidates []string) {
	var body []byte
	if r.Body != nil && r.Body != http.NoBody {
		b, err := io.ReadAll(io.LimitReader(r.Body, maxForwardBody+1))
		if err != nil {
			httpError(w, http.StatusBadRequest, "invalid_argument", "reading request body: %v", err)
			return
		}
		if len(b) > maxForwardBody {
			httpError(w, http.StatusRequestEntityTooLarge, "invalid_argument", "request body exceeds %d bytes", maxForwardBody)
			return
		}
		body = b
	}
	for i, addr := range candidates {
		if i > 0 {
			mRouterFailover.Load().Inc()
		}
		resp, err := rt.forwardOnce(r, addr, body)
		if err != nil {
			rt.cfg.Logger.Debug("forward failed; trying next candidate",
				"peer", addr, "err", err)
			continue
		}
		if retryableStatus(resp.StatusCode) && i < len(candidates)-1 {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			rt.cfg.Logger.Debug("peer answered retryable status; trying next candidate",
				"peer", addr, "status", resp.StatusCode)
			continue
		}
		mRouterForward.Load().Inc()
		copyResponse(w, resp)
		return
	}
	httpError(w, http.StatusBadGateway, "overloaded", "every ring candidate failed")
}

// forwardOnce proxies one request to addr, preserving path, query,
// headers (so If-None-Match revalidation and tracing survive the hop),
// and the buffered body — a fresh reader per attempt, so failover never
// replays a drained stream.
func (rt *Router) forwardOnce(r *http.Request, addr string, body []byte) (*http.Response, error) {
	target := addr + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target, rd)
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	return rt.cfg.HTTPClient.Do(req)
}

// retryableStatus mirrors the client's per-code retry rules for statuses
// a healthy sibling might answer differently: gateway failures and the
// overloaded/stale 503 family.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// copyResponse relays a proxied response verbatim.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer func() { _ = resp.Body.Close() }()
	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}
