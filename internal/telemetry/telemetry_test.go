package telemetry

import (
	"bytes"
	"log/slog"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Idempotent re-registration returns the same instrument.
	if again := r.Counter("jobs_total", "Jobs."); again != c {
		t.Error("re-registration returned a different counter")
	}

	g := r.Gauge("depth", "Depth.")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}
	at := time.Unix(1700000000, 0)
	g.SetTime(at)
	if got := g.Value(); got != 1.7e9 {
		t.Errorf("gauge time = %v, want 1.7e9", got)
	}
}

func TestVecSeriesAreIndependent(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("http_requests_total", "Requests.", "route", "code")
	v.With("/a", "2xx").Add(3)
	v.With("/a", "5xx").Inc()
	v.With("/b", "2xx").Inc()
	if got := v.With("/a", "2xx").Value(); got != 3 {
		t.Errorf("series /a,2xx = %d, want 3", got)
	}
	if got := v.With("/b", "2xx").Value(); got != 1 {
		t.Errorf("series /b,2xx = %d, want 1", got)
	}
}

// TestHistogramBuckets exercises the bucket math: boundary values land in
// the le (less-or-equal) bucket, values past the last boundary land in
// +Inf, and sum/count track exactly.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 1.0, 5, 10, 11, 1e9} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped

	got := h.BucketCounts()
	want := []uint64{2, 2, 2, 2} // le=0.1: {.05,.1}; le=1: {.5,1}; le=10: {5,10}; +Inf: {11,1e9}
	if len(got) != len(want) {
		t.Fatalf("bucket count slice length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	if wantSum := 0.05 + 0.1 + 0.5 + 1 + 5 + 10 + 11 + 1e9; math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestBucketNormalization(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "H.", []float64{5, 1, 1, math.Inf(1), 3})
	h.Observe(2)
	got := h.BucketCounts()
	// Normalized to {1,3,5} + implicit +Inf.
	if len(got) != 4 {
		t.Fatalf("buckets = %d, want 4", len(got))
	}
	if got[1] != 1 {
		t.Errorf("value 2 landed in %v, want bucket le=3", got)
	}
}

// TestPrometheusExposition is the golden test for the text format.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "A counter.").Add(3)
	r.Gauge("a_gauge", "A gauge.\nSecond line.").Set(1.5)
	v := r.CounterVec("c_total", "Labeled.", "route", "code")
	v.With("/x", "2xx").Inc()
	v.With(`/q"uote`, "5xx").Add(2)
	h := r.Histogram("d_seconds", "Histo.", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(3)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_gauge A gauge.\nSecond line.
# TYPE a_gauge gauge
a_gauge 1.5
# HELP b_total A counter.
# TYPE b_total counter
b_total 3
# HELP c_total Labeled.
# TYPE c_total counter
c_total{route="/q\"uote",code="5xx"} 2
c_total{route="/x",code="2xx"} 1
# HELP d_seconds Histo.
# TYPE d_seconds histogram
d_seconds_bucket{le="0.5"} 1
d_seconds_bucket{le="2"} 1
d_seconds_bucket{le="+Inf"} 2
d_seconds_sum 3.25
d_seconds_count 2
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "X.").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Errorf("body missing metric:\n%s", rec.Body.String())
	}
}

// TestNilSafety: a nil registry and every instrument it hands out must be
// callable with zero effect — this is the telemetry-off contract the
// library hot paths rely on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a_total", "A.")
	c.Inc()
	c.Add(2)
	if c.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	g := r.Gauge("g", "G.")
	g.Set(1)
	g.SetTime(time.Now())
	if g.Value() != 0 {
		t.Error("nil gauge accumulated")
	}
	h := r.Histogram("h", "H.", nil)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.BucketCounts() != nil {
		t.Error("nil histogram accumulated")
	}
	r.CounterVec("cv", "CV.", "l").With("x").Inc()
	r.HistogramVec("hv", "HV.", nil, "l").With("x").Observe(1)
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Errorf("nil registry write: %v", err)
	}
}

func TestMismatchedRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "M.")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "M.")
}

// TestConcurrentRegistry hammers one registry from many goroutines; run
// with -race this is the concurrency correctness test.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("conc_total", "Concurrent.", "worker")
	h := r.Histogram("conc_seconds", "Concurrent.", nil)
	g := r.Gauge("conc_gauge", "Concurrent.")
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := string(rune('a' + w%4))
			for i := 0; i < perWorker; i++ {
				v.With(label).Inc()
				h.Observe(float64(i) / perWorker)
				g.Set(float64(w))
				if i%500 == 0 {
					var buf bytes.Buffer
					_ = r.WritePrometheus(&buf)
				}
			}
		}(w)
	}
	wg.Wait()
	total := uint64(0)
	for _, l := range []string{"a", "b", "c", "d"} {
		total += v.With(l).Value()
	}
	if want := uint64(workers * perWorker); total != want {
		t.Errorf("counter total = %d, want %d", total, want)
	}
	if h.Count() != uint64(workers*perWorker) {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	if v := g.Value(); v < 0 || v >= workers || v != math.Trunc(v) {
		t.Errorf("gauge = %v, want one worker's index in [0, %d)", v, workers)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo, "Warn": slog.LevelWarn,
		"warning": slog.LevelWarn, "error": slog.LevelError, "": slog.LevelInfo,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("unknown level accepted")
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, "warn", true)
	lg.Info("hidden")
	lg.Warn("shown", "k", 1)
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Error("info leaked through warn level")
	}
	if !strings.Contains(out, `"msg":"shown"`) || !strings.Contains(out, `"k":1`) {
		t.Errorf("JSON output missing fields: %s", out)
	}
}

// Benchmarks proving the telemetry-off (nil) path is one branch and the
// enabled path is a few atomic ops.

func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "B.")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "B.", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.042)
	}
}
