package service

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/qbets"
	"github.com/drafts-go/drafts/internal/store"
	"github.com/drafts-go/drafts/internal/telemetry"
)

// benchHistory populates the same three-combo store the tests use, without
// requiring a *testing.T.
func benchHistory() (*history.Store, error) {
	st := history.NewStore()
	err := (pricegen.Generator{Seed: 31}).Populate(st, testCombos, t0, 9000)
	return st, err
}

// benchServer builds a refreshed server once per benchmark binary.
func benchServer(b *testing.B) *Server {
	b.Helper()
	srv, err := New(Config{Source: benchStore(b), MaxHistory: 9000})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		b.Fatal(err)
	}
	return srv
}

func benchStore(b *testing.B) Source {
	b.Helper()
	st, err := benchHistory()
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func serveLoop(b *testing.B, h http.Handler, target string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rec := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	}
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d", rec.Code)
	}
}

// BenchmarkPredictionsEncoded measures the pre-encoded fast path: the
// handler the production Handler serves cached single-table GETs through.
func BenchmarkPredictionsEncoded(b *testing.B) {
	srv := benchServer(b)
	serveLoop(b, srv.Handler(), "/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99")
}

// BenchmarkPredictionsMarshal measures the marshal oracle, which
// re-marshals the table from the epoch's core representation on every
// request — what a read cost before the blob store.
func BenchmarkPredictionsMarshal(b *testing.B) {
	srv := benchServer(b)
	serveLoop(b, srv.marshalHandler(), "/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99")
}

// BenchmarkCombosEncoded measures the pre-encoded combo listing.
func BenchmarkCombosEncoded(b *testing.B) {
	srv := benchServer(b)
	serveLoop(b, srv.Handler(), "/v1/combos")
}

// BenchmarkBatchTables3 measures the batch endpoint fetching three tables
// in one request.
func BenchmarkBatchTables3(b *testing.B) {
	srv := benchServer(b)
	serveLoop(b, srv.Handler(),
		"/v1/tables?combos=us-east-1b/c4.large,us-east-1c/c4.large,us-west-1a/c3.2xlarge&probability=0.99")
}

// BenchmarkNotModified measures conditional-GET revalidation: the 304 path
// a well-behaved caching client hits between refreshes.
func BenchmarkNotModified(b *testing.B) {
	srv := benchServer(b)
	h := srv.Handler()
	target := "/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99"
	probe := httptest.NewRequest(http.MethodGet, target, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, probe)
	etag := rec.Header().Get("Etag")
	if etag == "" {
		b.Fatal("no ETag")
	}
	req := httptest.NewRequest(http.MethodGet, target, nil)
	req.Header.Set("If-None-Match", etag)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	}
}

// BenchmarkRefreshFull and BenchmarkRefreshIncremental bracket the refresh
// cost: full recompute of every window (a fresh server's first refresh)
// versus clone + no new ticks.
func BenchmarkRefreshFull(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := New(Config{Source: st, MaxHistory: 9000})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := srv.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefreshFullMetrics is BenchmarkRefreshFull under draftsd's
// telemetry: the core, qbets and store counters registered and one
// refresh worker per GOMAXPROCS. Registration is process-wide, so the
// benchmark unregisters the counters when it ends. CI fails when its
// ns/op exceeds 1.25x BenchmarkRefreshFull's, as it did (1.4-1.6x) while
// every observed tick added to counters all refresh workers share.
func BenchmarkRefreshFullMetrics(b *testing.B) {
	st := benchStore(b)
	reg := telemetry.NewRegistry()
	core.RegisterMetrics(reg)
	qbets.RegisterMetrics(reg)
	store.RegisterMetrics(reg)
	b.Cleanup(func() {
		core.RegisterMetrics(nil)
		qbets.RegisterMetrics(nil)
		store.RegisterMetrics(nil)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := New(Config{
			Source:         st,
			MaxHistory:     9000,
			Metrics:        reg,
			RefreshWorkers: runtime.GOMAXPROCS(0),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := srv.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRefreshIncremental(b *testing.B) {
	srv := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
}
