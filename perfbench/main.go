// Command perfbench is the repository benchmark. Each run measures one
// workload in its own process:
//
//	serve     the read path: 452 combos x 30 days, 8 API-keyed tenants,
//	          an open-loop mix of cached GETs and fleet POSTs over loopback
//	ingest    the write path: tick ingest -> incremental refresh ->
//	          snapshot -> WAL on 60 combos x 90 days, reads beside writes,
//	          repeated warm restarts
//	backtest  the paper pipeline: Table 1 (and the Table 5 probability)
//	          over 6 combos with no server
//
// Usage, from the repository root (run.sh builds this program first):
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The lines before it name every metric of the workload with
// its unit and sample count. README.md maps each metric to its layer.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// now is the benchmark's wall clock. The benchmark measures real elapsed
// time, so it reads the clock on purpose, always through this one
// injected source.
var now = time.Now

// options is one run's command line.
type options struct {
	workload string
	seed     int64
	window   time.Duration // --seconds: how long the measurement runs
	traced   bool
	workDir  string // scratch space for durable state, inside the checkout
}

// e2eUnits are the end-to-end metrics every workload reports with
// --trace 0. Each workload binds the two latency slots to its own
// operations (see README.md): serve = cached GET / fleet POST, ingest =
// freshness / refresh cycle, backtest = Table 1 pass at p=0.99 / p=0.95.
var e2eUnits = map[string]string{
	"setup_s":      "s",
	"primary_ms":   "ms",
	"secondary_ms": "ms",
	"live_heap_mb": "MB",
}

// Per-layer metrics by the module whose workload loads them; a traced run
// reports all of them, measuring the other families on a small fixture.
var (
	serveLayers = map[string]string{
		"service.predictions_ns":     "ns",
		"service.not_modified_ns":    "ns",
		"service.tables_ns":          "ns",
		"service.advise_ns":          "ns",
		"service.fleet_ns":           "ns",
		"service.predictions_allocs": "count",
		"service.fleet_allocs":       "count",
		"service.handler_p50_ns":     "ns",
		"tenant.lookup_ns":           "ns",
		"tenant.allow_ns":            "ns",
		"core.surface_lookup_ns":     "ns",
		"http.noop_p50_us":           "us",
		"loadgen.late_p99_us":        "us",
	}
	ingestLayers = map[string]string{
		"core.clone_us":              "us",
		"core.observe_ns":            "ns",
		"core.table_us":              "us",
		"core.surface_us":            "us",
		"history.full_us":            "us",
		"pricegen.continue_ms":       "ms",
		"store.append_tick_us":       "us",
		"store.sync_ms":              "ms",
		"service.encode_snapshot_ms": "ms",
		"service.snapshot_mb":        "MB",
		"service.incremental_ratio":  "ratio",
		"store.write_snapshot_ms":    "ms",
		"store.compact_ms":           "ms",
		"store.open_ms":              "ms",
		"store.replay_ms":            "ms",
		"store.replay_records":       "count",
		"store.load_snapshot_ms":     "ms",
		"service.restore_ms":         "ms",
		"pricegen.populate_ms":       "ms",
		"store.seed_ms":              "ms",
		"service.cold_refresh_ms":    "ms",
	}
	backtestLayers = map[string]string{
		"qbets.observe_ns":       "ns",
		"core.batch_tables_ms":   "ms",
		"baselines.ar1_ms":       "ms",
		"baselines.ecdf_ms":      "ms",
		"backtest.residual_frac": "ratio",
		"pricegen.series_ms":     "ms",
	}
	commonLayers = map[string]string{
		"runtime.gc_cycles":   "count",
		"runtime.gc_pause_ms": "ms",
		"trace.overhead_pct":  "%",
	}
)

// named is one metric in the human-readable listing: the workload-level
// names (read_p50_us, fresh_ms, ...) with unit and sample count.
type named struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is what one workload run produced.
type result struct {
	attempted, failed int64
	checkFailures     []string
	e2e               map[string]float64
	layers            map[string]float64
	listing           []named
	notes             []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (r *result) add(name string, value float64, unit string, n int) {
	r.listing = append(r.listing, named{name, value, unit, n})
}

// addLatency lists the median of xs in microseconds and the highest of
// p99 and p90 that has ten samples beyond it.
func (r *result) addLatency(name string, xs []time.Duration) {
	r.add(name+"_p50_us", us(median(xs)), "us", len(xs))
	for _, t := range []struct {
		q   float64
		tag string
	}{{0.99, "_p99_us"}, {0.9, "_p90_us"}} {
		if tailOK(len(xs), t.q) {
			r.add(name+t.tag, us(quantile(xs, t.q)), "us", len(xs))
			return
		}
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed correctness check; any one fails the run.
func (r *result) fail(format string, args ...any) {
	if len(r.checkFailures) < 20 {
		r.checkFailures = append(r.checkFailures, fmt.Sprintf(format, args...))
	}
}

// count merges one phase's attempted/failed operations into the run's.
func (r *result) count(p phaseCounts) {
	r.attempted += p.attempted
	r.failed += p.failed
}

// phaseCounts is attempted/succeeded/failed for one phase.
type phaseCounts struct{ attempted, succeeded, failed int64 }

func (p phaseCounts) String() string {
	return fmt.Sprintf("attempted=%d succeeded=%d failed=%d", p.attempted, p.succeeded, p.failed)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type reportJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report renders the final JSON line; it errors when a required metric is
// missing or not a finite number, which is a bug in the benchmark.
func (r *result) report(traced bool) (reportJSON, error) {
	units := e2eUnits
	values := r.e2e
	if traced {
		units = layerUnits()
		values = r.layers
	}
	out := reportJSON{
		Correct:   len(r.checkFailures) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricJSON, len(units)),
	}
	for name, unit := range units {
		v, ok := values[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s missing or not finite (%v)", name, v)
		}
		out.Metrics[name] = metricJSON{Value: v, Unit: unit}
	}
	return out, nil
}

func layerUnits() map[string]string {
	all := map[string]string{}
	for _, m := range []map[string]string{serveLayers, ingestLayers, backtestLayers, commonLayers} {
		for k, v := range m {
			all[k] = v
		}
	}
	return all
}

func main() {
	var o options
	var seconds, traceFlag int
	flag.StringVar(&o.workload, "workload", "", "serve, ingest or backtest")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 20, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o.window = time.Duration(seconds) * time.Second
	o.traced = traceFlag == 1
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.workDir = filepath.Join(cwd, ".bench_build", fmt.Sprintf("work-%s-%d", o.workload, os.Getpid()))
	ctx := context.Background() //draftsvet:ignore ctxflow perfbench's main is its entrypoint, outside cmd/
	os.Exit(run(ctx, o))
}

// run executes one workload and prints its listing and JSON line,
// returning the process exit code.
func run(ctx context.Context, o options) int {
	// Noise control: pin the scheduler width to the machine explicitly.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(o.workDir)

	res, err := runWorkload(ctx, o, fullScale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printListing(os.Stdout, o, res)
	rep, err := res.report(o.traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// scale selects workload sizes: fullScale for the benchmark, tinyScale for
// the benchmark's own tests and for the other families' layer metrics in
// a traced run.
type scale int

const (
	fullScale scale = iota
	tinyScale
)

// runWorkload dispatches to the workload and, for a traced run, fills in
// the per-layer metrics of the families the workload does not load by
// running them at tiny scale.
func runWorkload(ctx context.Context, o options, sc scale) (*result, error) {
	runners := map[string]func(context.Context, options, scale) (*result, error){
		"serve":    runServe,
		"ingest":   runIngest,
		"backtest": runBacktest,
	}
	owned := map[string]map[string]string{
		"serve":    serveLayers,
		"ingest":   ingestLayers,
		"backtest": backtestLayers,
	}
	fn, ok := runners[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown --workload %q (want serve, ingest or backtest)", o.workload)
	}
	res, err := fn(ctx, o, sc)
	if err != nil || !o.traced {
		return res, err
	}
	for _, other := range []string{"serve", "ingest", "backtest"} {
		if other == o.workload {
			continue
		}
		sub := o
		sub.workload = other
		sub.window = 2 * time.Second
		sub.workDir = filepath.Join(o.workDir, "fixture-"+other)
		if err := os.MkdirAll(sub.workDir, 0o755); err != nil {
			return nil, err
		}
		fx, err := runners[other](ctx, sub, tinyScale)
		if err != nil {
			return nil, fmt.Errorf("%s layer fixture: %w", other, err)
		}
		for name := range owned[other] {
			if v, ok := fx.layers[name]; ok {
				res.layers[name] = v
			}
		}
		for _, f := range fx.checkFailures {
			res.fail("%s fixture: %s", other, f)
		}
		res.attempted += fx.attempted
		res.failed += fx.failed
	}
	return res, nil
}

func printListing(w *os.File, o options, r *result) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n",
		o.workload, o.seed, o.window.Seconds(), o.traced)
	fmt.Fprintf(w, "# machine %s\n", machineLine(o.workDir))
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, m := range r.listing {
		fmt.Fprintf(w, "%s/%s %.6g %s n=%d\n", o.workload, m.name, m.value, m.unit, m.n)
	}
	if o.traced {
		names := make([]string, 0, len(r.layers))
		for k := range r.layers {
			names = append(names, k)
		}
		sort.Strings(names)
		units := layerUnits()
		for _, k := range names {
			fmt.Fprintf(w, "%s/layer %s %.6g %s\n", o.workload, k, r.layers[k], units[k])
		}
	}
	fmt.Fprintf(w, "# operations attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, f := range r.checkFailures {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", f)
	}
}

// machineLine describes the host: CPU model, CPU count, Go version, and
// the filesystem holding the durable store.
func machineLine(dir string) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d go=%s fs=%s", cpu, runtime.NumCPU(), runtime.Version(), fsType(dir))
}

// fsType reports the filesystem type of the mount holding dir, from
// /proc/self/mounts (longest matching mount point).
func fsType(dir string) string {
	b, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// --- statistics ------------------------------------------------------------

// quantile returns the q-quantile (nearest rank) of durations, sorting a
// copy.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []time.Duration) time.Duration { return quantile(xs, 0.5) }

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailOK reports whether a p-quantile over n samples has the ten samples
// beyond it that make it worth reporting.
func tailOK(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// gcTotals reports the collector's work since the process started, set-up
// included: a serve window is often too short to trigger a collection,
// and a pause total that reads 0 on every run tells nothing.
func gcTotals(r *result) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.layers["runtime.gc_cycles"] = float64(m.NumGC)
	r.layers["runtime.gc_pause_ms"] = float64(m.PauseTotalNs) / 1e6
}

// gcTwice forces two collections: the second frees what sync.Pool victim
// caches kept alive through the first.
func gcTwice() {
	runtime.GC()
	runtime.GC()
}

// liveHeapMB forces collections and reports the heap still in use; the
// caller keeps its server reachable across the call.
func liveHeapMB() float64 {
	gcTwice()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
