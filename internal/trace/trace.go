// Package trace is the repository's stdlib-only distributed-tracing
// substrate: W3C trace-context propagation, pooled fixed-capacity span
// buffers, deterministic head sampling, and an always-on flight recorder
// that keeps the last traces — and every error/shed/slow trace — in a
// fixed-size lock-free ring served at GET /debug/flight.
//
// The design constraint that shapes everything here is the serving tier's
// zero-allocation contract: a cached /v1/predictions GET must stay at
// 0 allocs/req even with tracing enabled. So the package never touches
// context.Context on the request path (the *Trace rides on the pooled
// response writer instead), trace and flight-entry buffers are pooled and
// fixed-capacity, sampling is a pure function of the trace ID, and the
// hex spellings of IDs are materialized lazily — only on error envelopes,
// echoed headers, and /debug/flight reads, never on the unsampled happy
// path.
//
// Like the rest of the repository the package is deterministic on demand:
// the ID generator is a seeded splitmix64 sequence over an atomic counter
// and the clock is injected (Config.Now), so draftsvet's detrand/detclock
// rules hold and tests replay bit-for-bit.
package trace

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the 16-byte W3C trace-id. Its lower-cased 32-hex spelling
// doubles as the service's X-Request-Id, so one identifier joins the log
// line, the error envelope, and the flight-recorder entry.
type TraceID [16]byte

// SpanID is the 8-byte W3C parent-id/span-id.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool {
	for _, b := range id {
		if b != 0 {
			return false
		}
	}
	return true
}

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool {
	for _, b := range id {
		if b != 0 {
			return false
		}
	}
	return true
}

// String returns the lower-case hex spelling (allocates; not for the hot
// path).
func (id TraceID) String() string {
	var buf [32]byte
	hexEncode(buf[:], id[:])
	return string(buf[:])
}

// String returns the lower-case hex spelling (allocates; not for the hot
// path).
func (id SpanID) String() string {
	var buf [16]byte
	hexEncode(buf[:], id[:])
	return string(buf[:])
}

// Config parameterizes a Tracer. Now is mandatory: the package never
// reads the wall clock itself, the caller injects it (time.Now in the
// daemons, a fake in tests).
type Config struct {
	// SampleRate is the head-sampling probability in [0, 1]. The decision
	// is a deterministic pure function of the trace ID, so every hop of a
	// distributed trace — and every rerun of a seeded test — agrees on it.
	// Errors, sheds, and over-threshold-latency traces are recorded
	// regardless of the rate.
	SampleRate float64
	// Seed initializes the splitmix64 ID generator. Two tracers with the
	// same seed emit the same ID sequence.
	Seed int64
	// Now supplies timestamps. Required.
	Now func() time.Time
	// SlowThreshold, when positive, forces traces whose total duration
	// reaches it into the flight recorder even when unsampled.
	SlowThreshold time.Duration
	// FlightRecent is the flight recorder's completed-trace ring capacity
	// (default 64).
	FlightRecent int
	// FlightErrors is the flight recorder's error-trace ring capacity
	// (default 64). Error traces get their own ring so a burst of healthy
	// traffic cannot evict the 503 someone is trying to debug.
	FlightErrors int
}

// Tracer generates, samples, and records traces. All methods are safe for
// concurrent use and nil-receiver safe, so call sites need no "is tracing
// on" branches.
type Tracer struct {
	threshold uint64 // sample iff rand64(traceID) < threshold
	sampleAll bool
	slowNS    int64
	now       func() time.Time
	state     atomic.Uint64 // splitmix64 counter
	flight    *Flight
	pool      sync.Pool // *Trace

	started  atomic.Uint64
	sampled  atomic.Uint64
	spanDrop atomic.Uint64
}

// New validates cfg and returns a Tracer.
func New(cfg Config) (*Tracer, error) {
	if cfg.Now == nil {
		return nil, fmt.Errorf("trace: Config.Now is required (inject time.Now)")
	}
	if cfg.SampleRate < 0 || cfg.SampleRate > 1 || math.IsNaN(cfg.SampleRate) {
		return nil, fmt.Errorf("trace: sample rate %v outside [0,1]", cfg.SampleRate)
	}
	t := &Tracer{
		now:    cfg.Now,
		slowNS: int64(cfg.SlowThreshold),
		flight: newFlight(cfg.FlightRecent, cfg.FlightErrors),
	}
	if cfg.SampleRate >= 1 {
		t.sampleAll = true
		t.threshold = math.MaxUint64
	} else {
		// rate * 2^64, computed as rate * 2^63 * 2 to stay in range.
		t.threshold = uint64(cfg.SampleRate * float64(1<<63) * 2)
	}
	t.state.Store(uint64(cfg.Seed))
	t.pool.New = func() any { return new(Trace) }
	return t, nil
}

// rand64 advances the seeded splitmix64 sequence: an atomic add plus a
// few shifts and multiplies, lock- and allocation-free.
//
//drafts:nonalloc
func (t *Tracer) rand64() uint64 {
	x := t.state.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// sampleWord extracts the 64 bits of the trace ID the sampling decision
// reads, keeping the decision a pure function of the ID so every service
// hop agrees.
//
//drafts:nonalloc
func sampleWord(id TraceID) uint64 {
	var x uint64
	for _, b := range id[8:] {
		x = x<<8 | uint64(b)
	}
	return x
}

//drafts:nonalloc
func (t *Tracer) sampleID(id TraceID) bool {
	return t.sampleAll || sampleWord(id) < t.threshold
}

// newIDs generates a fresh, non-zero trace/span ID pair.
//
//drafts:nonalloc
func (t *Tracer) newIDs() (TraceID, SpanID) {
	var tid TraceID
	var sid SpanID
	for tid.IsZero() {
		hi, lo := t.rand64(), t.rand64()
		for i := 0; i < 8; i++ {
			tid[i] = byte(hi >> (56 - 8*i))
			tid[8+i] = byte(lo >> (56 - 8*i))
		}
	}
	for sid.IsZero() {
		s := t.rand64()
		for i := 0; i < 8; i++ {
			sid[i] = byte(s >> (56 - 8*i))
		}
	}
	return tid, sid
}

// StartTrace begins a new locally rooted trace of the given kind
// ("refresh", "client", ...). On a nil Tracer it returns a nil *Trace,
// whose every method no-ops, so callers never branch. The caller must End
// the trace on all paths (draftsvet's spanend analyzer enforces this).
//
//drafts:nonalloc
func (t *Tracer) StartTrace(kind string) *Trace {
	if t == nil {
		return nil
	}
	tid, sid := t.newIDs()
	return t.start(kind, tid, sid, SpanID{}, t.sampleID(tid), false)
}

// StartRequest begins the server-side trace for an inbound HTTP request,
// adopting the IDs from the traceparent header value when it parses (the
// root span becomes a child of the remote caller's span) and generating
// fresh ones otherwise. An upstream sampled flag is honoured in addition
// to the local head-sampling decision. Nil-receiver safe; must be Ended.
//
//drafts:nonalloc
func (t *Tracer) StartRequest(traceparent string) *Trace {
	if t == nil {
		return nil
	}
	if c, ok := ParseTraceparent(traceparent); ok {
		_, sid := t.newIDs()
		return t.start("http", c.TraceID, sid, c.SpanID, c.Sampled() || t.sampleID(c.TraceID), true)
	}
	tid, sid := t.newIDs()
	return t.start("http", tid, sid, SpanID{}, t.sampleID(tid), false)
}

//drafts:nonalloc
func (t *Tracer) start(kind string, tid TraceID, sid, parent SpanID, sampled, remote bool) *Trace {
	tr := t.pool.Get().(*Trace)
	tr.tracer = t
	tr.id = tid
	tr.root = sid
	tr.parent = parent
	tr.kind = kind
	tr.route = ""
	tr.errMsg = ""
	tr.status = 0
	tr.sampled = sampled
	tr.remote = remote
	tr.forced = false
	tr.ended = false
	tr.n.Store(0)
	tr.start = t.now().UnixNano()
	t.started.Add(1)
	if sampled {
		t.sampled.Add(1)
	}
	return tr
}

// Stats is a point-in-time snapshot of the tracer's counters.
type Stats struct {
	Started      uint64 `json:"traces_started"`
	Sampled      uint64 `json:"traces_sampled"`
	Recorded     uint64 `json:"traces_recorded"`
	Errors       uint64 `json:"error_traces_recorded"`
	DroppedSpans uint64 `json:"spans_dropped"`
}

// Stats reports the tracer's lifetime counters. Nil-receiver safe.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Started:      t.started.Load(),
		Sampled:      t.sampled.Load(),
		Recorded:     t.flight.recorded.Load(),
		Errors:       t.flight.errored.Load(),
		DroppedSpans: t.spanDrop.Load(),
	}
}
