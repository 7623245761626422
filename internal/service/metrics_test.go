package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/market"
	"github.com/drafts-go/drafts/internal/qbets"
	"github.com/drafts-go/drafts/internal/telemetry"
)

// metricsServer builds a refreshed server wired to a fresh registry.
func metricsServer(t *testing.T) (*Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	srv, err := New(Config{Source: testStore(t), MaxHistory: 9000, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	return srv, reg
}

func TestMiddlewareRecordsRequests(t *testing.T) {
	srv, reg := metricsServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s -> %d, want %d", path, resp.StatusCode, want)
		}
	}
	get("/healthz", http.StatusOK)
	get("/v1/predictions", http.StatusBadRequest)                            // missing params
	get("/v1/predictions?zone=us-east-1b&type=x9.mega", http.StatusNotFound) // unknown combo
	get("/nope", http.StatusNotFound)                                        // no such route

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`drafts_http_requests_total{route="/healthz",code="2xx"} 1`,
		`drafts_http_requests_total{route="/v1/predictions",code="4xx"} 2`,
		`drafts_http_requests_total{route="other",code="4xx"} 1`,
		`drafts_http_request_seconds_count{route="/healthz"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestRouteAndStatusLabels(t *testing.T) {
	for pattern, want := range map[string]string{
		"":                    "other",
		"GET /healthz":        "/healthz",
		"/v1/combos":          "/v1/combos",
		"GET /v1/predictions": "/v1/predictions",
	} {
		if got := routeLabel(pattern); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", pattern, got, want)
		}
	}
	for code, want := range map[int]string{200: "2xx", 404: "4xx", 503: "5xx", 42: "other"} {
		if got := statusClass(code); got != want {
			t.Errorf("statusClass(%d) = %q, want %q", code, got, want)
		}
	}
}

type healthBody struct {
	Status       string  `json:"status"`
	Tables       int     `json:"tables"`
	AgeSeconds   float64 `json:"as_of_age_seconds"`
	Stale        bool    `json:"stale"`
	Breaker      string  `json:"breaker"`
	LastRefreshE string  `json:"last_refresh_error"`
}

func getHealth(t *testing.T, srv *Server) healthBody {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body healthBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

func TestHealthzStaleness(t *testing.T) {
	srv, err := New(Config{Source: testStore(t), MaxHistory: 9000, RefreshEvery: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	// Before any refresh the table set is empty, not stale-with-data.
	if body := getHealth(t, srv); body.Status != "empty" || !body.Stale {
		t.Errorf("pre-refresh health = %+v, want status empty and stale", body)
	}

	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	body := getHealth(t, srv)
	if body.Status != "ok" || body.Stale {
		t.Errorf("fresh health = %+v, want status ok, not stale", body)
	}
	if body.AgeSeconds < 0 || body.AgeSeconds > 60 {
		t.Errorf("as_of_age_seconds = %v, want small nonnegative", body.AgeSeconds)
	}

	// Age the table set past two refresh periods and plant a combo error:
	// the endpoint must flip to stale and surface the error.
	srv.now = func() time.Time { return time.Now().Add(-3 * time.Minute) }
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	srv.setLastErr("2 combo failures, last: boom")
	body = getHealth(t, srv)
	if body.Status != "degraded" || !body.Stale {
		t.Errorf("aged health = %+v, want status degraded and stale", body)
	}
	if body.Breaker != "closed" {
		t.Errorf("breaker = %q, want closed (staleness alone does not trip it)", body.Breaker)
	}
	if body.AgeSeconds < 150 {
		t.Errorf("as_of_age_seconds = %v, want >= 150", body.AgeSeconds)
	}
	if !strings.Contains(body.LastRefreshE, "boom") {
		t.Errorf("last_refresh_error = %q, want the planted error", body.LastRefreshE)
	}
}

// TestMetricsEndpoint is the end-to-end check mirroring draftsd's wiring:
// service handler plus registry exposition on one mux, with the library
// packages' counters registered alongside the service's own.
func TestMetricsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	core.RegisterMetrics(reg)
	qbets.RegisterMetrics(reg)
	market.RegisterMetrics(reg)
	t.Cleanup(func() {
		core.RegisterMetrics(nil)
		qbets.RegisterMetrics(nil)
		market.RegisterMetrics(nil)
	})
	src := testStore(t)
	srv, err := New(Config{Source: src, MaxHistory: 9000, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("GET /metrics", reg.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// Generate some request traffic first so the HTTP families have data.
	for _, path := range []string{"/healthz", "/v1/combos"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics -> %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	// Every metric the issue requires, plus a library-package counter.
	for _, name := range []string{
		"drafts_http_requests_total",
		"drafts_http_request_seconds",
		"drafts_refresh_duration_seconds",
		"drafts_refresh_errors_total",
		"drafts_tables",
		"drafts_last_refresh_success_timestamp_seconds",
		"drafts_market_repricings_total",
		"drafts_predictor_observations_total",
	} {
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Errorf("/metrics missing family %s", name)
		}
	}
	// 3 combos x 2 probability levels served.
	if !strings.Contains(out, "drafts_tables 6") {
		t.Error("/metrics missing drafts_tables 6")
	}
	if !strings.Contains(out, "drafts_refresh_duration_seconds_count 1") {
		t.Error("/metrics missing refresh duration observation")
	}
	// The cold refresh observed every tick of every combo once per
	// probability level, and every test price is valid.
	ticks := 0
	for _, c := range testCombos {
		ser, _ := src.Full(c)
		ticks += ser.Len()
	}
	for _, name := range []string{"drafts_predictor_observations_total", "drafts_qbets_observations_total"} {
		if want := fmt.Sprintf("\n%s %d\n", name, ticks*len(probabilities)); !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(want))
		}
	}

	// Light format validation: every non-comment, non-blank line is
	// "name[{labels}] value" and every family has a preceding # TYPE.
	typed := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(name, suffix); ok && typed[cut] {
				base = cut
				break
			}
		}
		if !typed[base] {
			t.Errorf("sample %q has no preceding # TYPE", fields[0])
		}
	}
}

func TestRefreshCountsSkippedCombos(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := history.NewStore() // combos exist nowhere: Combos() is empty
	srv, err := New(Config{Source: st, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// No combos means no tables and no errors: Refresh succeeds vacuously
	// (the error return is reserved for cycles where failures produced
	// nothing) and the gauge records an empty table set.
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"drafts_tables 0", "drafts_refresh_errors_total 0"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestRefreshStageMetrics checks that one durable refresh records each of
// its stages once, and that drafts_refresh_duration_seconds times the
// whole cycle: every stage lies inside it.
func TestRefreshStageMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, err := New(Config{
		Source:     testStore(t),
		MaxHistory: 9000,
		Metrics:    reg,
		Durable:    &memDurable{},
		PreRefresh: func() error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	stageSum := 0.0
	for i, name := range refreshStages {
		want := `drafts_refresh_stage_seconds_count{stage="` + name + `"} 1`
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
		stageSum += srv.metrics.refreshStage[i].Sum()
	}
	cycle := srv.metrics.refreshDuration
	if cycle.Count() != 1 {
		t.Fatalf("refresh duration observed %d times, want 1", cycle.Count())
	}
	if stageSum > cycle.Sum() {
		t.Errorf("stages sum to %gs, more than the %gs cycle", stageSum, cycle.Sum())
	}
}

// slowDurable is a memDurable whose snapshot write takes at least delay.
type slowDurable struct {
	memDurable
	delay time.Duration
}

func (d *slowDurable) WriteSnapshot(p []byte) error {
	time.Sleep(d.delay)
	return d.memDurable.WriteSnapshot(p)
}

// TestRefreshLogsWholeCycle checks that the "refresh complete" log reports
// the cycle drafts_refresh_duration_seconds observes, persist included: a
// snapshot write that sleeps 40ms shows in the logged elapsed.
func TestRefreshLogsWholeCycle(t *testing.T) {
	const delay = 40 * time.Millisecond
	var logs bytes.Buffer
	srv, err := New(Config{
		Source:     testStore(t),
		MaxHistory: 9000,
		Metrics:    telemetry.NewRegistry(),
		Durable:    &slowDurable{delay: delay},
		Logger:     slog.New(slog.NewJSONHandler(&logs, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	var elapsed time.Duration
	found := false
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec struct {
			Msg     string        `json:"msg"`
			Elapsed time.Duration `json:"elapsed"`
		}
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "refresh complete" {
			elapsed, found = rec.Elapsed, true
		}
	}
	if !found {
		t.Fatalf("no refresh complete log in:\n%s", logs.String())
	}
	if elapsed < delay {
		t.Errorf("logged elapsed %v misses the %v snapshot write", elapsed, delay)
	}
	cycle := time.Duration(srv.metrics.refreshDuration.Sum() * 1e9)
	if diff := time.Duration(math.Abs(float64(elapsed - cycle))); diff > time.Millisecond {
		t.Errorf("logged elapsed %v, but the cycle metric observed %v", elapsed, cycle)
	}
}

// TestBlobEncodeObservedPerRefresh checks that drafts_blob_encode_seconds
// and the blob.encode stage count refreshes, not snapshot restores.
func TestBlobEncodeObservedPerRefresh(t *testing.T) {
	durable := &memDurable{}
	srv, err := New(Config{Source: testStore(t), MaxHistory: 9000, Metrics: telemetry.NewRegistry(), Durable: durable})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	if n := srv.metrics.encodeDuration.Count(); n != 1 {
		t.Errorf("one refresh observed blob encode %d times, want 1", n)
	}
	restored, err := New(Config{Source: testStore(t), MaxHistory: 9000, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(durable.snapshots[0]); err != nil {
		t.Fatal(err)
	}
	if n := restored.metrics.encodeDuration.Count(); n != 0 {
		t.Errorf("a snapshot restore observed blob encode %d times, want 0", n)
	}
	if n := restored.metrics.refreshStage[stageEncode].Count(); n != 0 {
		t.Errorf("a snapshot restore recorded the blob.encode stage %d times, want 0", n)
	}
}
