package trace

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a deterministic test clock: every read advances it by
// step, so spans get distinct, predictable timestamps.
type fakeClock struct {
	now  atomic.Int64
	step int64
}

func newFakeClock(start time.Time, step time.Duration) *fakeClock {
	c := &fakeClock{step: int64(step)}
	c.now.Store(start.UnixNano())
	return c
}

func (c *fakeClock) Now() time.Time {
	return time.Unix(0, c.now.Add(c.step)-c.step)
}

func (c *fakeClock) Advance(d time.Duration) { c.now.Add(int64(d)) }

var testEpoch = time.Date(2016, 10, 1, 0, 0, 0, 0, time.UTC)

func testTracer(t *testing.T, rate float64) *Tracer {
	t.Helper()
	tr, err := New(Config{
		SampleRate: rate,
		Seed:       31,
		Now:        newFakeClock(testEpoch, time.Microsecond).Now,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{SampleRate: 0.5}); err == nil {
		t.Fatal("New accepted a nil clock")
	}
	if _, err := New(Config{SampleRate: -0.1, Now: time.Now}); err == nil {
		t.Fatal("New accepted a negative sample rate")
	}
	if _, err := New(Config{SampleRate: 1.5, Now: time.Now}); err == nil {
		t.Fatal("New accepted a sample rate above 1")
	}
}

func TestSeededIDsAreDeterministic(t *testing.T) {
	a := testTracer(t, 1)
	b := testTracer(t, 1)
	for i := 0; i < 10; i++ {
		ta, tb := a.StartTrace("x"), b.StartTrace("x")
		if ta.id != tb.id {
			t.Fatalf("trace %d: same seed produced different IDs %s vs %s", i, ta.IDString(), tb.IDString())
		}
		if ta.id.IsZero() {
			t.Fatalf("trace %d: zero trace ID", i)
		}
		ta.End()
		tb.End()
	}
}

func TestSamplingIsDeterministicFunctionOfID(t *testing.T) {
	tr := testTracer(t, 0.5)
	// The same trace ID must sample identically on a second tracer with a
	// different seed: the decision depends only on the ID.
	other := testTracer(t, 0.5)
	other.state.Store(12345)
	sampledCount := 0
	for i := 0; i < 2000; i++ {
		a := tr.StartTrace("x")
		hdr := a.Traceparent()
		want := a.Sampled()
		if want {
			sampledCount++
		}
		a.End()
		b := other.StartRequest(hdr)
		got := b.Sampled()
		b.End()
		if want && !got {
			t.Fatalf("trace %s sampled upstream but not downstream", hdr)
		}
		if !want && got {
			t.Fatalf("trace %s unsampled upstream but sampled downstream", hdr)
		}
	}
	// At rate 0.5 over 2000 draws, [800, 1200] is a >6-sigma window.
	if sampledCount < 800 || sampledCount > 1200 {
		t.Fatalf("sampled %d of 2000 at rate 0.5", sampledCount)
	}
}

func TestSampleRateExtremes(t *testing.T) {
	all := testTracer(t, 1)
	none := testTracer(t, 0)
	for i := 0; i < 100; i++ {
		a := all.StartTrace("x")
		if !a.Sampled() {
			t.Fatal("rate 1 produced an unsampled trace")
		}
		a.End()
		b := none.StartTrace("x")
		if b.Sampled() {
			t.Fatal("rate 0 produced a sampled trace")
		}
		b.End()
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := testTracer(t, 1)
	a := tr.StartTrace("x")
	hdr := a.Traceparent()
	id, root := a.id, a.root
	a.End()
	c, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) failed", hdr)
	}
	if c.TraceID != id || c.SpanID != root || !c.Sampled() {
		t.Fatalf("round trip mismatch: %q -> %+v", hdr, c)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // no flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0",   // short flags
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // upper-case hex
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // version ff
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // trailing junk, v00
		"0g-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // bad version hex
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // bad separator
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted", s)
		}
	}
	// Forward compatibility: a higher version with a longer tail parses.
	future := "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"
	if _, ok := ParseTraceparent(future); !ok {
		t.Errorf("ParseTraceparent(%q) rejected future version", future)
	}
}

func TestSpansRecordStructureAndTiming(t *testing.T) {
	tr := testTracer(t, 1)
	a := tr.StartTrace("refresh")
	sp := a.StartSpan("ingest")
	sp.End()
	sp2 := a.StartSpan("build")
	sp2.EndErr(errors.New("boom"))
	a.End()
	rep := tr.Report()
	if len(rep.Recent) != 1 {
		t.Fatalf("want 1 recent trace, got %d", len(rep.Recent))
	}
	got := rep.Recent[0]
	if len(got.Spans) != 2 {
		t.Fatalf("want 2 spans, got %+v", got.Spans)
	}
	if got.Spans[0].Name != "ingest" || got.Spans[1].Name != "build" {
		t.Fatalf("span names wrong: %+v", got.Spans)
	}
	if got.Spans[1].Error != "boom" {
		t.Fatalf("span error missing: %+v", got.Spans[1])
	}
	if got.Spans[0].DurUS == nil || *got.Spans[0].DurUS <= 0 {
		t.Fatalf("sampled span not timed: %+v", got.Spans[0])
	}
}

func TestSpanOverflowDropsNotAllocates(t *testing.T) {
	tr := testTracer(t, 1)
	a := tr.StartTrace("x")
	for i := 0; i < MaxSpans+5; i++ {
		a.StartSpan("s").End()
	}
	a.End()
	if got := tr.Stats().DroppedSpans; got != 5 {
		t.Fatalf("want 5 dropped spans, got %d", got)
	}
	rep := tr.Report()
	if len(rep.Recent[0].Spans) != MaxSpans {
		t.Fatalf("want %d retained spans, got %d", MaxSpans, len(rep.Recent[0].Spans))
	}
}

func TestErrorTracesRecordedRegardlessOfSampling(t *testing.T) {
	tr := testTracer(t, 0) // nothing head-sampled
	ok := tr.StartTrace("http")
	ok.SetStatus(200)
	ok.End()
	shed := tr.StartTrace("http")
	shed.SetRoute("/v1/predictions")
	shed.SetStatus(503)
	shed.Fail(errors.New("queue full"))
	shedID := shed.IDString()
	shed.End()
	rep := tr.Report()
	if len(rep.Recent) != 0 {
		t.Fatalf("unsampled success recorded: %+v", rep.Recent)
	}
	if len(rep.Errors) != 1 {
		t.Fatalf("want 1 error trace, got %d", len(rep.Errors))
	}
	e := rep.Errors[0]
	if e.TraceID != shedID || e.Status != 503 || !strings.Contains(e.Error, "queue full") {
		t.Fatalf("error trace wrong: %+v", e)
	}
	if e.RequestID != e.TraceID {
		t.Fatalf("request_id %q != trace_id %q", e.RequestID, e.TraceID)
	}
}

func TestSlowTracesRecorded(t *testing.T) {
	clock := newFakeClock(testEpoch, 0)
	tr, err := New(Config{SampleRate: 0, Seed: 7, Now: clock.Now, SlowThreshold: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fast := tr.StartTrace("http")
	fast.End()
	slow := tr.StartTrace("http")
	clock.Advance(200 * time.Millisecond)
	slow.End()
	rep := tr.Report()
	if len(rep.Errors) != 1 {
		t.Fatalf("want 1 slow trace in the error ring, got %d", len(rep.Errors))
	}
	if ms := rep.Errors[0].DurMS; ms < 199 || ms > 201 {
		t.Fatalf("slow trace duration %vms, want ~200ms", ms)
	}
}

func TestForcedTracesRecorded(t *testing.T) {
	tr := testTracer(t, 0)
	a := tr.StartTrace("refresh")
	a.Force()
	a.StartSpan("tables.build").End()
	a.End()
	rep := tr.Report()
	if len(rep.Recent) != 1 || rep.Recent[0].Kind != "refresh" {
		t.Fatalf("forced refresh trace not recorded: %+v", rep)
	}
	if rep.Recent[0].Spans[0].DurUS == nil {
		t.Fatal("forced trace spans should be timed")
	}
}

func TestRingEviction(t *testing.T) {
	clock := newFakeClock(testEpoch, time.Microsecond)
	tr, err := New(Config{SampleRate: 1, Seed: 3, Now: clock.Now, FlightRecent: 4, FlightErrors: 2})
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for i := 0; i < 10; i++ {
		a := tr.StartTrace("http")
		a.SetStatus(200)
		last = a.IDString()
		a.End()
	}
	rep := tr.Report()
	if len(rep.Recent) != 4 {
		t.Fatalf("ring holds %d, want capacity 4", len(rep.Recent))
	}
	if rep.Recent[0].TraceID != last {
		t.Fatalf("newest-first order broken: got %s want %s", rep.Recent[0].TraceID, last)
	}
	if got := tr.Stats().Recorded; got != 10 {
		t.Fatalf("recorded counter %d, want 10", got)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	a := tr.StartTrace("x")
	if a != nil {
		t.Fatal("nil tracer should start nil traces")
	}
	a.Force()
	a.SetRoute("/r")
	a.SetStatus(500)
	a.Fail(errors.New("x"))
	sp := a.StartSpan("s")
	sp.EndErr(errors.New("x"))
	sp.EndErr(nil)
	sp.End()
	a.End()
	if got := a.Traceparent(); got != "" {
		t.Fatalf("nil trace traceparent %q", got)
	}
	if got := a.IDString(); got != "" {
		t.Fatalf("nil trace id %q", got)
	}
	if rep := tr.Report(); len(rep.Recent) != 0 || len(rep.Errors) != 0 {
		t.Fatal("nil tracer report not empty")
	}
	if s := tr.Stats(); s != (Stats{}) {
		t.Fatal("nil tracer stats not zero")
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := testTracer(t, 1)
	a := tr.StartTrace("x")
	a.End()
	a.End() // second End must not double-record or re-pool
	if got := tr.Stats().Recorded; got != 1 {
		t.Fatalf("double End recorded %d traces", got)
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := testTracer(t, 1)
	a := tr.StartTrace("x")
	defer a.End()
	ctx := NewContext(context.Background(), a)
	if got := FromContext(ctx); got != a {
		t.Fatal("context round trip lost the trace")
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatal("empty context returned a trace")
	}
	if got := NewContext(context.Background(), nil); got != context.Background() {
		t.Fatal("nil trace should not wrap the context")
	}
}

func TestRequestIDMatchesTraceIDHex(t *testing.T) {
	tr := testTracer(t, 1)
	a := tr.StartTrace("x")
	id := a.IDString()
	if len(id) != 32 || strings.ToLower(id) != id {
		t.Fatalf("trace id %q is not 32 lower-hex chars", id)
	}
	hdr := a.Traceparent()
	if !strings.Contains(hdr, id) {
		t.Fatalf("traceparent %q does not embed trace id %q", hdr, id)
	}
	a.End()
}
