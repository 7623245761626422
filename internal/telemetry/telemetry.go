// Package telemetry is the repository's zero-dependency observability
// substrate: an atomic metrics registry with Prometheus text-format
// exposition, and shared structured-logging helpers built on log/slog.
//
// Everything is nil-safe by construction: a nil *Registry hands out nil
// instruments, and every instrument method no-ops on a nil receiver. A
// library user (or benchmark) that never wires a registry therefore pays
// one pointer load and one branch per instrumentation site — telemetry off
// costs effectively nothing, which is what lets the hot paths (QBETS
// observation ingest, market clearing, the cloud simulator's event loop)
// carry permanent instrumentation.
//
// The exposition format is the Prometheus text format (version 0.0.4):
// counters, gauges, and fixed-bucket cumulative histograms, with optional
// label dimensions. Families render sorted by name and series sorted by
// label values, so output is deterministic and golden-testable.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Instrument type names as they appear in # TYPE lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// DefaultDurationBuckets suit request/refresh latencies from sub-millisecond
// HTTP handlers up to multi-minute table recomputations (seconds).
var DefaultDurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Registry is a set of metric families. The zero value is not useful; use
// NewRegistry. A nil *Registry is a valid no-op sink: every getter returns
// a nil instrument whose methods no-op.
type Registry struct {
	mu       sync.Mutex
	fams     map[string]*family
	onScrape []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family is one named metric with a fixed type, label schema and, for
// histograms, bucket layout. Series (one per label-value combination) are
// created lazily.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histograms only; ascending upper bounds, no +Inf

	mu     sync.RWMutex
	series map[string]any // *Counter | *Gauge | *Histogram
}

// seriesKeySep joins label values into map keys; \xff cannot appear in
// valid UTF-8 label values.
const seriesKeySep = "\xff"

// getFamily returns the named family, creating it on first use. Re-getting
// an existing name is idempotent when the type and label schema match and
// panics otherwise — colliding metric definitions are a programming error
// best caught at wiring time.
func (r *Registry) getFamily(name, help, typ string, labels []string, buckets []float64) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s%v, was %s%v",
				name, typ, labels, f.typ, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("telemetry: metric %q re-registered with labels %v, was %v",
					name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		typ:     typ,
		labels:  append([]string(nil), labels...),
		buckets: normalizeBuckets(buckets),
		series:  make(map[string]any),
	}
	r.fams[name] = f
	return f
}

// normalizeBuckets sorts, deduplicates, and strips any trailing +Inf (the
// histogram adds its own implicit +Inf bucket).
func normalizeBuckets(buckets []float64) []float64 {
	out := make([]float64, 0, len(buckets))
	for _, b := range buckets {
		if !math.IsInf(b, +1) && !math.IsNaN(b) {
			out = append(out, b)
		}
	}
	sort.Float64s(out)
	dedup := out[:0]
	for i, b := range out {
		// Deduplicating adjacent equal bucket bounds after sorting compares
		// verbatim copies, so exact inequality is the right test.
		if i == 0 || b != out[i-1] { //draftsvet:ignore floatcmp verbatim-copy dedup after sort
			dedup = append(dedup, b)
		}
	}
	return dedup
}

// get returns the series for the given label values, creating it with mk on
// first use.
func (f *family) get(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, seriesKeySep)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s = mk()
	f.series[key] = s
	return s
}

// --- Counter -------------------------------------------------------------

// Counter is a monotonically increasing count. A nil *Counter no-ops.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n.Add(1)
	}
}

// Add adds n (which must be non-negative; counters only go up).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.n.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Counter returns the unlabeled counter with the given name, registering it
// on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.getFamily(name, help, typeCounter, nil, nil)
	if f == nil {
		return nil
	}
	return f.get(nil, func() any { return new(Counter) }).(*Counter)
}

// CounterVec is a counter family with label dimensions.
type CounterVec struct {
	f *family
}

// CounterVec returns the labeled counter family with the given name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.getFamily(name, help, typeCounter, labels, nil)
	if f == nil {
		return nil
	}
	return &CounterVec{f: f}
}

// With returns the counter for the given label values. Nil-safe.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(values, func() any { return new(Counter) }).(*Counter)
}

// --- Gauge ---------------------------------------------------------------

// Gauge is an instantaneous float64 value. A nil *Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// SetTime stores t as Unix seconds (the Prometheus *_timestamp_seconds
// convention).
func (g *Gauge) SetTime(t time.Time) {
	g.Set(float64(t.UnixNano()) / 1e9)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.getFamily(name, help, typeGauge, nil, nil)
	if f == nil {
		return nil
	}
	return f.get(nil, func() any { return new(Gauge) }).(*Gauge)
}

// --- Histogram -----------------------------------------------------------

// Histogram is a fixed-bucket cumulative histogram. Bucket boundaries are
// upper bounds in ascending order; an implicit +Inf bucket catches the
// rest. A nil *Histogram no-ops.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // len(upper)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// BucketCounts returns the per-bucket (non-cumulative) counts, the last
// entry being the +Inf bucket. Nil on a nil histogram.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Histogram returns the unlabeled histogram with the given name. Buckets
// are upper bounds in seconds (or whatever unit the metric uses); nil
// buckets default to DefaultDurationBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefaultDurationBuckets
	}
	f := r.getFamily(name, help, typeHistogram, nil, buckets)
	if f == nil {
		return nil
	}
	return f.get(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec is a histogram family with label dimensions.
type HistogramVec struct {
	f *family
}

// HistogramVec returns the labeled histogram family with the given name.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefaultDurationBuckets
	}
	f := r.getFamily(name, help, typeHistogram, labels, buckets)
	if f == nil {
		return nil
	}
	return &HistogramVec{f: f}
}

// With returns the histogram for the given label values. Nil-safe.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.get(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// --- Exposition ----------------------------------------------------------

// OnScrape registers fn to run at the start of every WritePrometheus
// call, before the families are snapshotted. It is how pull-model values —
// runtime/metrics samples, a tracer's counters — become gauges that are
// exactly as fresh as the scrape reading them. Hooks run outside the
// registry lock, so they may freely create and set instruments; they must
// not call WritePrometheus. Nil-safe.
func (r *Registry) OnScrape(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.onScrape = append(r.onScrape, fn)
	r.mu.Unlock()
}

// WritePrometheus renders every registered family in Prometheus text
// format, families sorted by name and series by label values. OnScrape
// hooks run first, so gauge-backed pull values are sampled per scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hooks := r.onScrape
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	fams := make(map[string]*family, len(r.fams))
	for n, f := range r.fams {
		names = append(names, n)
		fams[n] = f
	}
	r.mu.Unlock()
	sort.Strings(names)

	var b strings.Builder
	for _, n := range names {
		fams[n].write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)

	f.mu.RLock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	f.mu.RUnlock()
	sort.Strings(keys)

	for _, key := range keys {
		f.mu.RLock()
		s := f.series[key]
		f.mu.RUnlock()
		var values []string
		if key != "" || len(f.labels) > 0 {
			values = strings.Split(key, seriesKeySep)
		}
		switch m := s.(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %s\n", f.name, renderLabels(f.labels, values, "", ""),
				strconv.FormatUint(m.Value(), 10))
		case *Gauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, renderLabels(f.labels, values, "", ""),
				formatFloat(m.Value()))
		case *Histogram:
			cum := uint64(0)
			counts := m.BucketCounts()
			for i, upper := range m.upper {
				cum += counts[i]
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					renderLabels(f.labels, values, "le", formatFloat(upper)), cum)
			}
			cum += counts[len(counts)-1]
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				renderLabels(f.labels, values, "le", "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name,
				renderLabels(f.labels, values, "", ""), formatFloat(m.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name,
				renderLabels(f.labels, values, "", ""), m.Count())
		}
	}
}

// renderLabels formats {k1="v1",k2="v2"}, with an optional extra pair (used
// for histogram le labels). Returns "" with no labels at all.
func renderLabels(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		// %q escapes quotes, backslashes, and newlines exactly as the
		// Prometheus text format requires.
		fmt.Fprintf(&b, "%s=%q", n, v)
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraName, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// Handler serves the registry in Prometheus text format (GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
