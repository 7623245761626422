package trace

import "sync/atomic"

// MaxSpans bounds the child spans one trace retains. The serving and
// refresh paths emit a handful each; overflow increments a counter and
// drops the span rather than allocating.
const MaxSpans = 16

// Span is one timed phase inside a trace. Spans live in their trace's
// fixed buffer — starting one claims a slot, it is never allocated. A nil
// *Span (from a nil trace or an overflowing one) no-ops on every method.
//
// When the owning trace is unsampled and unforced, spans record structure
// only (name, order, error) and skip the clock reads; should the trace
// turn out to be an error and reach the flight recorder anyway, its spans
// appear with zero durations. Sampled traces are fully timed.
type Span struct {
	name   string
	start  int64 // unix nanos; 0 when untimed
	end    int64
	errMsg string
	tr     *Trace
}

// Trace is one request's (or refresh cycle's) in-flight trace. Instances
// are pooled by the Tracer; End returns them. All methods are nil-safe.
type Trace struct {
	tracer  *Tracer
	id      TraceID
	root    SpanID // this process's root span
	parent  SpanID // remote parent span, zero when locally rooted
	kind    string
	route   string
	errMsg  string
	status  int
	start   int64
	sampled bool
	remote  bool
	forced  bool
	ended   bool

	n     atomic.Int32
	spans [MaxSpans]Span
}

// IDString returns the 32-hex trace ID — the request_id the service
// reports. Allocates; call it only on error/echo paths. "" on nil.
func (tr *Trace) IDString() string {
	if tr == nil {
		return ""
	}
	return tr.id.String()
}

// Sampled reports the head-sampling decision (false on nil).
func (tr *Trace) Sampled() bool { return tr != nil && tr.sampled }

// Remote reports whether the trace adopted a caller's traceparent
// (false on nil).
func (tr *Trace) Remote() bool { return tr != nil && tr.remote }

// Traceparent renders the header value to propagate downstream or echo on
// a response: this process's root span becomes the receiver's parent.
// Allocates; "" on nil.
func (tr *Trace) Traceparent() string {
	if tr == nil {
		return ""
	}
	return FormatTraceparent(tr.id, tr.root, tr.sampled)
}

// Force marks the trace for recording regardless of the sampling
// decision, with full span timing — the refresh pipeline uses it so every
// cycle leaves a flight-recorder entry.
func (tr *Trace) Force() {
	if tr == nil {
		return
	}
	tr.forced = true
}

// SetRoute labels the trace with its route (or path) for the flight
// recorder.
func (tr *Trace) SetRoute(route string) {
	if tr == nil {
		return
	}
	tr.route = route
}

// SetStatus records the trace's HTTP status code. Statuses ≥ 500 make the
// trace an error trace, recorded regardless of sampling; 503 is the shed
// path's signature.
func (tr *Trace) SetStatus(code int) {
	if tr == nil {
		return
	}
	tr.status = code
}

// Fail records err as the trace's error, forcing it into the flight
// recorder at End. Fail(nil) no-ops so deferred error propagation needs
// no branch.
func (tr *Trace) Fail(err error) {
	if tr == nil || err == nil {
		return
	}
	tr.errMsg = err.Error()
}

// detailed reports whether spans carry timings.
func (tr *Trace) detailed() bool { return tr.sampled || tr.forced }

// StartSpan claims the next span slot. On a nil trace — or once MaxSpans
// are claimed — it returns nil, which every Span method tolerates. The
// span must be ended on all paths (End or EndErr; spanend enforces).
//
//drafts:nonalloc
func (tr *Trace) StartSpan(name string) *Span {
	if tr == nil {
		return nil
	}
	i := tr.n.Add(1) - 1
	if int(i) >= MaxSpans {
		tr.n.Add(-1)
		tr.tracer.spanDrop.Add(1)
		return nil
	}
	sp := &tr.spans[i]
	sp.name = name
	sp.errMsg = ""
	sp.end = 0
	sp.tr = tr
	if tr.detailed() {
		sp.start = tr.tracer.now().UnixNano()
	} else {
		sp.start = 0
	}
	return sp
}

// End closes the span. Nil-safe.
//
//drafts:nonalloc
func (sp *Span) End() {
	if sp == nil {
		return
	}
	if sp.start != 0 && sp.tr.tracer != nil {
		sp.end = sp.tr.tracer.now().UnixNano()
	}
}

// EndErr closes the span, recording err (when non-nil) as its error —
// the one-statement form that keeps Start/End straight-line even when an
// error branch follows, which is what the spanend analyzer wants to see.
//
//drafts:nonalloc
func (sp *Span) EndErr(err error) {
	if sp == nil {
		return
	}
	if err != nil {
		sp.errMsg = err.Error()
	}
	sp.End()
}

// End completes the trace: it stamps the duration, decides whether the
// trace is retained (sampled or forced → recent ring; error, shed, or
// over-threshold-latency → error ring, regardless of sampling), hands it
// to the flight recorder, and returns the buffer to the pool. Idempotent
// and nil-safe, so "defer tr.End()" is always correct.
//
//drafts:nonalloc
func (tr *Trace) End() {
	if tr == nil || tr.ended {
		return
	}
	tr.ended = true
	t := tr.tracer
	// The common case — unsampled, unforced, healthy, and no slow
	// threshold to compare against — can never be recorded, so it skips
	// even the end-of-trace clock read.
	if !tr.sampled && !tr.forced && t.slowNS == 0 &&
		tr.status < 500 && tr.errMsg == "" {
		tr.release(t)
		return
	}
	end := t.now().UnixNano()
	dur := end - tr.start
	notable := tr.status >= 500 || tr.errMsg != "" ||
		(t.slowNS > 0 && dur >= t.slowNS)
	if notable || tr.sampled || tr.forced {
		t.flight.record(tr, dur, notable)
	}
	tr.release(t)
}

// release returns the trace buffer to the pool.
//
//drafts:nonalloc
func (tr *Trace) release(t *Tracer) {
	tr.tracer = nil // guard accidental reuse after pooling
	tr.kind = ""
	tr.route = ""
	tr.errMsg = ""
	t.pool.Put(tr)
}
