package service

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
)

// TestErrorEnvelopeGolden pins the exact error bytes every /v1 endpoint
// emits: one uniform envelope, a closed code vocabulary, and — on a bare
// handler with no middleware — no request_id field at all. These are
// golden tests on purpose: clients switch on these bytes.
func TestErrorEnvelopeGolden(t *testing.T) {
	srv := testServer(t)
	cold, err := New(Config{Source: testStore(t), MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		srv     *Server
		path    string
		status  int
		body    string
		headers map[string]string
	}{
		{
			name:   "predictions missing params",
			srv:    srv,
			path:   "/v1/predictions",
			status: http.StatusBadRequest,
			body:   `{"error":{"code":"invalid_argument","message":"zone and type are required"}}` + "\n",
		},
		{
			name:   "predictions unknown combo",
			srv:    srv,
			path:   "/v1/predictions?zone=mars-1a&type=c4.large",
			status: http.StatusNotFound,
			body:   `{"error":{"code":"not_found","message":"no table for mars-1a/c4.large at probability 0.99"}}` + "\n",
		},
		{
			name:   "predictions unknown account",
			srv:    srv,
			path:   "/v1/predictions?zone=us-east-1b&type=c4.large&account=ghost",
			status: http.StatusForbidden,
			body:   `{"error":{"code":"permission_denied","message":"no zone mapping configured for account \"ghost\""}}` + "\n",
		},
		{
			name:   "tables missing combos",
			srv:    srv,
			path:   "/v1/tables",
			status: http.StatusBadRequest,
			body:   `{"error":{"code":"invalid_argument","message":"combos is required (comma-separated zone/type pairs)"}}` + "\n",
		},
		{
			name:   "tables malformed combo",
			srv:    srv,
			path:   "/v1/tables?combos=oops",
			status: http.StatusBadRequest,
			body:   `{"error":{"code":"invalid_argument","message":"combo \"oops\" must be zone/type"}}` + "\n",
		},
		{
			name:   "tables unknown combo",
			srv:    srv,
			path:   "/v1/tables?combos=mars-1a/c4.large",
			status: http.StatusNotFound,
			body:   `{"error":{"code":"not_found","message":"no table for mars-1a/c4.large at probability 0.99"}}` + "\n",
		},
		{
			name:   "tables bad probability",
			srv:    srv,
			path:   "/v1/tables?combos=us-east-1b/c4.large&probability=2",
			status: http.StatusBadRequest,
			body:   `{"error":{"code":"invalid_argument","message":"invalid probability \"2\""}}` + "\n",
		},
		{
			name:   "advise missing duration",
			srv:    srv,
			path:   "/v1/advise?zone=us-east-1b&type=c4.large",
			status: http.StatusBadRequest,
			body:   `{"error":{"code":"invalid_argument","message":"duration is required (e.g. 2h30m)"}}` + "\n",
		},
		{
			name:   "advise invalid duration",
			srv:    srv,
			path:   "/v1/advise?zone=us-east-1b&type=c4.large&duration=yesterday",
			status: http.StatusBadRequest,
			body:   `{"error":{"code":"invalid_argument","message":"invalid duration \"yesterday\""}}` + "\n",
		},
		{
			name:   "cold start tables",
			srv:    cold,
			path:   "/v1/tables?combos=us-east-1b/c4.large",
			status: http.StatusServiceUnavailable,
			body:   `{"error":{"code":"stale","message":"no tables computed yet"}}` + "\n",
		},
		{
			name:   "cold start predictions",
			srv:    cold,
			path:   "/v1/predictions?zone=us-east-1b&type=c4.large",
			status: http.StatusServiceUnavailable,
			body:   `{"error":{"code":"stale","message":"no tables computed yet"}}` + "\n",
		},
		{
			name:   "cold start combos",
			srv:    cold,
			path:   "/v1/combos",
			status: http.StatusServiceUnavailable,
			body:   `{"error":{"code":"stale","message":"no tables computed yet"}}` + "\n",
		},
		{
			name:   "cold start advise",
			srv:    cold,
			path:   "/v1/advise?zone=us-east-1b&type=c4.large&duration=1h",
			status: http.StatusServiceUnavailable,
			body:   `{"error":{"code":"stale","message":"no tables computed yet"}}` + "\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest("GET", tc.path, nil)
			rec := httptest.NewRecorder()
			tc.srv.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d", rec.Code, tc.status)
			}
			if got := rec.Body.String(); got != tc.body {
				t.Errorf("body = %q\nwant   %q", got, tc.body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
		})
	}
}

// TestRequestIDPropagation covers the middleware path: an inbound
// X-Request-Id is echoed on the response and inside the error envelope; a
// request without one gets a generated hex ID.
func TestRequestIDPropagation(t *testing.T) {
	srv, err := New(Config{Source: testStore(t), MaxHistory: 9000, MaxConcurrent: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	req := httptest.NewRequest("GET", "/v1/predictions", nil)
	req.Header.Set("X-Request-Id", "gateway-7")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got != "gateway-7" {
		t.Errorf("response header X-Request-Id = %q, want gateway-7", got)
	}
	want := `{"error":{"code":"invalid_argument","message":"zone and type are required","request_id":"gateway-7"}}` + "\n"
	if got := rec.Body.String(); got != want {
		t.Errorf("body = %q\nwant   %q", got, want)
	}

	// No inbound ID: one is assigned (16 hex chars) and echoed.
	req = httptest.NewRequest("GET", "/v1/predictions", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	id := rec.Header().Get("X-Request-Id")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Errorf("generated request ID %q, want 16 hex chars", id)
	}

	// A hostile oversized inbound ID is truncated, not copied wholesale.
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'x'
	}
	req = httptest.NewRequest("GET", "/v1/predictions", nil)
	req.Header.Set("X-Request-Id", string(long))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); len(got) != maxRequestIDLen {
		t.Errorf("oversized inbound ID echoed at %d chars, want %d", len(got), maxRequestIDLen)
	}
}

// TestPanicContainment: a panicking handler inside the middleware becomes
// a 500 internal envelope instead of a connection reset.
func TestPanicContainment(t *testing.T) {
	srv, err := New(Config{Source: testStore(t), MaxHistory: 9000, MaxConcurrent: 4})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	h := srv.wrap(mux)
	req := httptest.NewRequest("GET", "/v1/boom", nil)
	req.Header.Set("X-Request-Id", "p-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	want := `{"error":{"code":"internal","message":"internal error","request_id":"p-1"}}` + "\n"
	if got := rec.Body.String(); got != want {
		t.Errorf("body = %q\nwant   %q", got, want)
	}
}
