package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"
)

// percentile returns the p-quantile (0..1) of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// TestOverloadAdmissionControl drives the service well past its admission
// capacity in-process and checks the overload contract: goodput stays
// non-zero, overflow is shed as 503 + Retry-After with the "overloaded"
// envelope code, and the latency of *accepted* requests stays bounded —
// the queue is short by construction, so accepted work is never stuck
// behind an unbounded backlog.
func TestOverloadAdmissionControl(t *testing.T) {
	srv, err := New(Config{
		Source:        testStore(t),
		MaxHistory:    9000,
		MaxConcurrent: 4,
		MaxQueue:      4,
		QueueWait:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	// The real handlers answer in microseconds — far too fast for 16
	// workers to ever fill a 4+4 admission window, so shedding through
	// them is a scheduler coin flip. Route the same admission middleware
	// around a handler with a fixed 2ms service time instead: 16 workers
	// against 8 slots of 2ms work makes queue overflow a certainty, and
	// the QueueWait of 1s is long enough that overflow — not wait
	// timeout — is the only shed path, keeping accepted latency tied to
	// the short queue.
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/work", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ok":true}`))
	})
	h := srv.wrap(mux)
	const path = "/v1/work"

	// Uncontended baseline: sequential requests through the same stack.
	const warm = 100
	base := make([]time.Duration, 0, warm)
	for i := 0; i < warm; i++ {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		began := time.Now()
		h.ServeHTTP(rec, req)
		base = append(base, time.Since(began))
		if rec.Code != http.StatusOK {
			t.Fatalf("uncontended request returned %d", rec.Code)
		}
	}
	sort.Slice(base, func(i, j int) bool { return base[i] < base[j] })
	baseP99 := percentile(base, 0.99)

	// Overload: 16 concurrent workers against 4+4 admission slots —
	// sustained pressure at 2× the total admitted+queued capacity.
	const workers, perWorker = 16, 50
	var mu sync.Mutex
	var accepted []time.Duration
	var shed, other int
	var firstShed *httptest.ResponseRecorder
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := httptest.NewRequest("GET", path, nil)
				rec := httptest.NewRecorder()
				began := time.Now()
				h.ServeHTTP(rec, req)
				elapsed := time.Since(began)
				mu.Lock()
				switch rec.Code {
				case http.StatusOK:
					accepted = append(accepted, elapsed)
				case http.StatusServiceUnavailable:
					shed++
					if firstShed == nil {
						firstShed = rec
					}
				default:
					other++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if other != 0 {
		t.Fatalf("%d responses were neither 200 nor 503", other)
	}
	if len(accepted) == 0 {
		t.Fatal("zero goodput under overload: every request was shed")
	}
	if shed == 0 {
		t.Fatal("no requests shed at 2x capacity: admission control inactive")
	}
	t.Logf("overload: %d accepted, %d shed (%.0f%%), uncontended p99 %v",
		len(accepted), shed, 100*float64(shed)/float64(shed+len(accepted)), baseP99)

	// Shed responses carry the full overload contract.
	if got := firstShed.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	var env errorEnvelope
	if err := json.Unmarshal(firstShed.Body.Bytes(), &env); err != nil {
		t.Fatalf("shed body %q is not an envelope: %v", firstShed.Body.String(), err)
	}
	if env.Error.Code != codeOverloaded {
		t.Errorf("shed code = %q, want %q", env.Error.Code, codeOverloaded)
	}

	// Accepted latency stays bounded: within 5× the uncontended p99, with
	// an absolute floor so scheduler jitter on busy CI machines cannot
	// flake a sub-millisecond baseline.
	sort.Slice(accepted, func(i, j int) bool { return accepted[i] < accepted[j] })
	p99 := percentile(accepted, 0.99)
	bound := 5 * baseP99
	if floor := 50 * time.Millisecond; bound < floor {
		bound = floor
	}
	if p99 > bound {
		t.Errorf("accepted p99 %v exceeds bound %v (uncontended p99 %v)", p99, bound, baseP99)
	}
}

// TestQueueWaitDeadline: a request stuck in the admission queue past
// QueueWait is shed rather than parked forever.
func TestQueueWaitDeadline(t *testing.T) {
	srv, err := New(Config{
		Source:        testStore(t),
		MaxHistory:    9000,
		MaxConcurrent: 1,
		MaxQueue:      4,
		QueueWait:     20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	// Hold the only slot so the next request must queue, then time out.
	if err := srv.sem.Acquire(httptest.NewRequest("GET", "/", nil).Context(), 1); err != nil {
		t.Fatal(err)
	}
	defer srv.sem.Release(1)

	rec := httptest.NewRecorder()
	began := time.Now()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/combos", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued request returned %d, want 503 after QueueWait", rec.Code)
	}
	if elapsed := time.Since(began); elapsed < 15*time.Millisecond {
		t.Errorf("shed after %v, want to wait out the 20ms QueueWait first", elapsed)
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != codeOverloaded {
		t.Errorf("timed-out queue wait body %q, want overloaded envelope", rec.Body.String())
	}

	// Health and metrics stay reachable while /v1/* is saturated.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz returned %d while /v1 saturated, want 200", rec.Code)
	}
}
