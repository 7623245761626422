package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/faults"
	"github.com/drafts-go/drafts/internal/resilience"
)

// chaosGet performs one in-process GET and returns the recorder.
func chaosGet(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// TestChaosRefreshOutageServesStale walks the whole degradation arc with
// an injected refresh outage: last-good tables keep serving byte-identical,
// then age into marked-stale responses, then past MaxStaleness into
// 503/stale refusals — and a recovered refresh restores byte-identical
// fresh serving.
func TestChaosRefreshOutageServesStale(t *testing.T) {
	fs := faults.New(1)
	srv, err := New(Config{
		Source:       testStore(t),
		MaxHistory:   9000,
		RefreshEvery: time.Minute,
		MaxStaleness: 10 * time.Minute,
		Faults:       fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	const path = "/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99"

	rec := chaosGet(t, h, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("baseline GET = %d", rec.Code)
	}
	baseline := rec.Body.Bytes()
	if rec.Header().Get(stalenessHeader) != "" {
		t.Fatal("fresh response carries a staleness header")
	}

	// The source goes dark: refresh fails but the last-good epoch serves.
	fs.Enable(faults.Rule{Op: "service.refresh"})
	if err := srv.Refresh(); err == nil {
		t.Fatal("refresh succeeded with the outage fault armed")
	}
	rec = chaosGet(t, h, path)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), baseline) {
		t.Fatalf("outage GET = %d, body identical = %v; want last-good bytes",
			rec.Code, bytes.Equal(rec.Body.Bytes(), baseline))
	}

	// Age the epoch past two refresh periods: still served, now marked.
	refreshStampedAt(t, srv, fs, time.Now().Add(-3*time.Minute))

	rec = chaosGet(t, h, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("stale GET = %d, want 200 (serve-stale)", rec.Code)
	}
	if got := rec.Header().Get(stalenessHeader); got != "180" {
		t.Errorf("%s = %q, want \"180\"", stalenessHeader, got)
	}
	if !bytes.Equal(rec.Body.Bytes(), baseline) {
		t.Error("stale response bytes differ from last-good epoch")
	}
	var hb healthBody
	if r := chaosGet(t, h, "/healthz"); true {
		if err := json.NewDecoder(r.Body).Decode(&hb); err != nil {
			t.Fatal(err)
		}
	}
	if hb.Status != "degraded" || !hb.Stale {
		t.Errorf("healthz during outage = %+v, want degraded and stale", hb)
	}

	// Beyond MaxStaleness the tables are refused: a guarantee computed
	// from hour-old prices is no guarantee.
	refreshStampedAt(t, srv, fs, time.Now().Add(-11*time.Minute))
	rec = chaosGet(t, h, path)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("beyond-max-staleness GET = %d, want 503", rec.Code)
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != codeStale {
		t.Fatalf("refusal body %q, want stale envelope", rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("staleness refusal missing Retry-After")
	}

	// Recovery: the fault clears, the next refresh recomputes from the
	// unchanged history, and serving returns byte-identical to baseline.
	fs.Disable("service.refresh")
	if err := srv.Refresh(); err != nil {
		t.Fatalf("recovery refresh: %v", err)
	}
	rec = chaosGet(t, h, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("recovered GET = %d", rec.Code)
	}
	if rec.Header().Get(stalenessHeader) != "" {
		t.Error("recovered response still marked stale")
	}
	if !bytes.Equal(rec.Body.Bytes(), baseline) {
		t.Error("recovered bytes differ from pre-outage serving (deterministic recompute)")
	}
}

// refreshStampedAt ages the served epoch with a real refresh: the outage
// fault is lifted for one refresh of the unchanged history, which
// recomputes the same tables stamped at asOf, and then re-armed.
func refreshStampedAt(t *testing.T, srv *Server, fs *faults.Set, asOf time.Time) {
	t.Helper()
	fs.Disable("service.refresh")
	srv.now = func() time.Time { return asOf }
	err := srv.Refresh()
	srv.now = time.Now
	fs.Enable(faults.Rule{Op: "service.refresh"})
	if err != nil {
		t.Fatalf("aged refresh: %v", err)
	}
}

// TestChaosBreakerTripAndRecovery runs the real refresh loop at a tight
// cadence with an injected outage: the breaker must trip after the
// threshold, healthz must report degraded with the breaker open, and a
// successful probe must close it again.
func TestChaosBreakerTripAndRecovery(t *testing.T) {
	fs := faults.New(7)
	srv, err := New(Config{
		Source:       testStore(t),
		MaxHistory:   9000,
		RefreshEvery: 10 * time.Millisecond,
		Faults:       fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := srv.Start(ctx); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	fs.Enable(faults.Rule{Op: "service.refresh"})
	waitForCond(t, 5*time.Second, func() bool {
		return srv.breakerState() == resilience.Open
	})
	var hb healthBody
	r := chaosGet(t, h, "/healthz")
	if err := json.NewDecoder(r.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	if hb.Status != "degraded" || hb.Breaker != "open" {
		t.Errorf("healthz with breaker open = %+v, want degraded/open", hb)
	}

	fired := fs.Fired("service.refresh")
	if fired < breakerThreshold {
		t.Errorf("outage fired %d times, want at least the breaker threshold", fired)
	}
	fs.Disable("service.refresh")
	waitForCond(t, 5*time.Second, func() bool {
		return srv.breakerState() == resilience.Closed
	})
	r = chaosGet(t, h, "/healthz")
	if err := json.NewDecoder(r.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	if hb.Status != "ok" || hb.Breaker != "closed" {
		t.Errorf("healthz after recovery = %+v, want ok/closed", hb)
	}
}

// waitForCond polls until cond holds or the deadline passes.
func waitForCond(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached before deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
