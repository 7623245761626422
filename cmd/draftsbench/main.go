// Command draftsbench is the serving-path load harness: a zero-dependency
// closed- and open-loop generator that drives a live draftsd (or an
// in-process server in -direct mode) and writes a machine-readable
// BENCH_serving.json report alongside a human summary.
//
// Modes (combinable in one invocation; every mode appends to the same
// report):
//
//	-target http://host:8732   drive a live daemon over HTTP
//	-direct                    in-process per-op cost of a cached
//	                           /v1/predictions GET (ns/op, allocs/op)
//	-gobench file              ingest `go test -bench` output (use "-" for
//	                           stdin) into the same report
//	-trace-overhead            in-process tracing A/B (off vs 1%% vs 100%%
//	                           sampling) writing BENCH_trace.json
//	-cluster                   in-process replication A/B: a writer shipping
//	                           epochs to -cluster-replicas replicas, verified
//	                           byte-identical, aggregate read throughput vs
//	                           the single node, writing BENCH_cluster.json
//	-fleet                     in-process advise-surface scenario: >=1000
//	                           randomized writer-vs-replica advise
//	                           equivalence trials, the advise per-op cost,
//	                           and POST /v1/fleet throughput, writing
//	                           BENCH_fleet.json
//
// Load shape against a live target:
//
//	-conns N      concurrent connections (closed loop: each issues the next
//	              request as soon as the previous completes)
//	-rps R        open-loop arrival rate; 0 keeps the closed loop. Latency
//	              is measured from the scheduled arrival time, so queueing
//	              delay is not hidden (no coordinated omission).
//	-batch-frac F fraction of requests sent to the /v1/tables batch
//	              endpoint, -batch-size combos at a time
//
// Examples:
//
//	draftsbench -target http://localhost:8732 -duration 30s -conns 32
//	draftsbench -direct -duration 5s
//	go test ./internal/service/ -run xxx -bench . | draftsbench -gobench -
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/drafts-go/drafts/internal/benchio"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/service"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/telemetry"
	"github.com/drafts-go/drafts/internal/trace"
)

type options struct {
	target      string
	duration    time.Duration
	warmup      time.Duration
	conns       int
	rps         float64
	batchFrac   float64
	batchSize   int
	probability float64
	combos      string
	out         string
	gobench     string

	direct       bool
	directCombos int
	directTicks  int
	seed         int64

	overload     bool
	overloadMult float64
	overloadOut  string

	traceOverhead bool
	traceOut      string

	cluster         bool
	clusterReplicas int
	clusterCombos   int
	clusterOut      string

	fleet       bool
	fleetTrials int
	fleetOut    string

	tenantsN   int
	tenantsRPS float64
	tenantsOut string
}

func main() {
	var opts options
	flag.StringVar(&opts.target, "target", "", "base URL of a live draftsd to load (e.g. http://localhost:8732)")
	flag.DurationVar(&opts.duration, "duration", 10*time.Second, "measurement window per scenario")
	flag.DurationVar(&opts.warmup, "warmup", 2*time.Second, "warmup before measurement (live mode)")
	flag.IntVar(&opts.conns, "conns", 16, "concurrent connections (live mode)")
	flag.Float64Var(&opts.rps, "rps", 0, "open-loop arrival rate; 0 = closed loop")
	flag.Float64Var(&opts.batchFrac, "batch-frac", 0, "fraction of requests using the /v1/tables batch endpoint")
	flag.IntVar(&opts.batchSize, "batch-size", 8, "combos per batch request")
	flag.Float64Var(&opts.probability, "probability", 0.99, "probability level to request")
	flag.StringVar(&opts.combos, "combos", "", "comma-separated zone/type list; default: fetch from /v1/combos")
	flag.StringVar(&opts.out, "out", "BENCH_serving.json", "report output path")
	flag.StringVar(&opts.gobench, "gobench", "", "ingest go test -bench output from this file (- for stdin)")
	flag.BoolVar(&opts.direct, "direct", false, "measure the in-process per-op cost of a cached /v1/predictions GET")
	flag.IntVar(&opts.directCombos, "direct-combos", 3, "combos in the in-process server (-direct)")
	flag.IntVar(&opts.directTicks, "direct-ticks", 9000, "history ticks per combo (-direct)")
	flag.Int64Var(&opts.seed, "seed", 42, "price generator seed (-direct)")
	flag.BoolVar(&opts.overload, "overload", false, "overload scenario: measure capacity, then drive -overload-mult times it open-loop (requires -target)")
	flag.Float64Var(&opts.overloadMult, "overload-mult", 2, "offered load as a multiple of measured capacity (-overload)")
	flag.StringVar(&opts.overloadOut, "overload-out", "BENCH_overload.json", "overload report output path")
	flag.BoolVar(&opts.traceOverhead, "trace-overhead", false, "in-process tracing-overhead A/B: tracing off vs 1%% vs 100%% sampling")
	flag.StringVar(&opts.traceOut, "trace-out", "BENCH_trace.json", "tracing-overhead report output path")
	flag.BoolVar(&opts.cluster, "cluster", false, "in-process cluster A/B: replicate a writer to -cluster-replicas replicas, verify byte equality, and measure aggregate read throughput")
	flag.IntVar(&opts.clusterReplicas, "cluster-replicas", 2, "replica count for -cluster")
	flag.IntVar(&opts.clusterCombos, "cluster-combos", 3, "combos in the -cluster writer")
	flag.StringVar(&opts.clusterOut, "cluster-out", "BENCH_cluster.json", "cluster report output path")
	flag.BoolVar(&opts.fleet, "fleet", false, "in-process fleet scenario: writer/replica advise equivalence trials, advise per-op cost, and POST /v1/fleet throughput")
	flag.IntVar(&opts.fleetTrials, "fleet-trials", 1000, "randomized advise equivalence trials for -fleet (min 1000)")
	flag.StringVar(&opts.fleetOut, "fleet-out", "BENCH_fleet.json", "fleet report output path")
	flag.IntVar(&opts.tenantsN, "tenants", 0, "in-process multi-tenant fairness scenario: N compliant tenants paced under quota plus one abusive tenant hammering closed-loop; 0 disables")
	flag.Float64Var(&opts.tenantsRPS, "tenants-rps", 50, "per-tenant steady quota for -tenants (requests/second)")
	flag.StringVar(&opts.tenantsOut, "tenants-out", "BENCH_tenants.json", "tenant fairness report output path")
	flag.Parse()

	if opts.target == "" && !opts.direct && opts.gobench == "" && !opts.traceOverhead && !opts.cluster && !opts.fleet && opts.tenantsN <= 0 {
		fmt.Fprintln(os.Stderr, "draftsbench: nothing to do; pass -target, -direct, and/or -gobench (see -h)")
		os.Exit(2)
	}
	if opts.overload && opts.target == "" {
		fmt.Fprintln(os.Stderr, "draftsbench: -overload requires -target")
		os.Exit(2)
	}

	report := benchio.NewReport(time.Now().UTC())

	if opts.gobench != "" {
		if err := ingestGoBench(report, opts.gobench); err != nil {
			fatal(err)
		}
	}
	if opts.direct {
		if err := runDirect(report, opts); err != nil {
			fatal(err)
		}
	}
	// The overload scenario replaces the plain live run: it measures
	// capacity first, then offers a multiple of it, and writes its own
	// report file.
	if opts.target != "" && !opts.overload {
		if err := runLive(report, opts); err != nil {
			fatal(err)
		}
	}
	if opts.overload {
		if err := runOverload(opts); err != nil {
			fatal(err)
		}
	}
	if opts.traceOverhead {
		if err := runTraceOverhead(opts); err != nil {
			fatal(err)
		}
	}
	if opts.cluster {
		if err := runCluster(opts); err != nil {
			fatal(err)
		}
	}
	if opts.fleet {
		if err := runFleetBench(opts); err != nil {
			fatal(err)
		}
	}
	if opts.tenantsN > 0 {
		if err := runTenantBench(opts); err != nil {
			fatal(err)
		}
	}

	if len(report.Results) > 0 {
		if err := benchio.Write(opts.out, report); err != nil {
			fatal(err)
		}
		printSummary(report)
		fmt.Printf("report written to %s\n", opts.out)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "draftsbench: %v\n", err)
	os.Exit(1)
}

func ingestGoBench(report *benchio.Report, path string) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	results, err := benchio.ParseGoBench(r)
	if err != nil {
		return err
	}
	for _, res := range results {
		report.Add(res)
	}
	return nil
}

// runDirect measures the cached-read path on one in-process server,
// single-threaded: per-op time and heap allocations of a /v1/predictions
// GET.
func runDirect(report *benchio.Report, opts options) error {
	combos := spot.Combos()
	if opts.directCombos > 0 && opts.directCombos < len(combos) {
		combos = combos[:opts.directCombos]
	}
	start := time.Now().UTC().Add(-time.Duration(opts.directTicks) * spot.UpdatePeriod).Truncate(spot.UpdatePeriod)
	st := history.NewStore()
	if err := (pricegen.Generator{Seed: opts.seed}).Populate(st, combos, start, opts.directTicks); err != nil {
		return err
	}
	srv, err := service.New(service.Config{Source: st, MaxHistory: opts.directTicks})
	if err != nil {
		return err
	}
	if err := srv.Refresh(); err != nil {
		return err
	}
	target := fmt.Sprintf("/v1/predictions?zone=%s&type=%s&probability=%v",
		combos[0].Zone, combos[0].Type, opts.probability)

	encoded, err := measureHandler(srv.Handler(), target, opts.duration)
	if err != nil {
		return fmt.Errorf("cached read: %w", err)
	}

	labels := map[string]string{"request": target, "duration": opts.duration.String()}
	report.Add(benchio.Result{
		Name: "direct/predictions-encoded", Kind: "direct", Labels: labels,
		Metrics: map[string]float64{
			"requests": float64(encoded.n), "ns_per_op": encoded.nsPerOp,
			"allocs_per_op": encoded.allocsPerOp, "throughput_rps": encoded.rps,
		},
	})
	return nil
}

type directStats struct {
	n           int
	nsPerOp     float64
	allocsPerOp float64
	rps         float64
}

// measureHandler drives one handler in-process with a reused request and
// recorder (the handler equivalent of a tight benchmark loop) and reports
// per-op time and heap allocations from runtime.MemStats deltas.
func measureHandler(h http.Handler, target string, d time.Duration) (directStats, error) {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rec := httptest.NewRecorder()
	for i := 0; i < 200; i++ { // warmup: JIT-free but warms caches and pools
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	}
	if rec.Code != http.StatusOK {
		return directStats{}, fmt.Errorf("GET %s: status %d: %s", target, rec.Code, rec.Body.String())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	began := time.Now()
	deadline := began.Add(d)
	n := 0
	for time.Now().Before(deadline) {
		for i := 0; i < 256; i++ {
			rec.Body.Reset()
			h.ServeHTTP(rec, req)
		}
		n += 256
	}
	elapsed := time.Since(began)
	runtime.ReadMemStats(&after)
	return directStats{
		n:           n,
		nsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
		allocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
		rps:         float64(n) / elapsed.Seconds(),
	}, nil
}

// runLive drives a live daemon. Requests draw from the combo mix; a
// batchFrac share goes to the batch endpoint.
func runLive(report *benchio.Report, opts options) error {
	combos, err := resolveCombos(opts)
	if err != nil {
		return err
	}
	if len(combos) == 0 {
		return fmt.Errorf("target serves no combos")
	}
	singles := make([]string, len(combos))
	for i, c := range combos {
		q := url.Values{}
		q.Set("zone", string(c.Zone))
		q.Set("type", string(c.Type))
		q.Set("probability", fmt.Sprint(opts.probability))
		singles[i] = opts.target + "/v1/predictions?" + q.Encode()
	}
	var batches []string
	for at := 0; at < len(combos); at += opts.batchSize {
		end := at + opts.batchSize
		if end > len(combos) {
			end = len(combos)
		}
		parts := make([]string, 0, end-at)
		for _, c := range combos[at:end] {
			parts = append(parts, c.String())
		}
		q := url.Values{}
		q.Set("combos", strings.Join(parts, ","))
		q.Set("probability", fmt.Sprint(opts.probability))
		batches = append(batches, opts.target+"/v1/tables?"+q.Encode())
	}

	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        opts.conns,
			MaxIdleConnsPerHost: opts.conns,
		},
	}

	if opts.warmup > 0 {
		runWorkers(client, opts, singles, batches, opts.warmup)
	}
	agg := runWorkers(client, opts, singles, batches, opts.duration)

	kind := "closed-loop"
	if opts.rps > 0 {
		kind = "open-loop"
	}
	sort.Float64s(agg.latenciesMS)
	metrics := map[string]float64{
		"requests":       float64(agg.requests),
		"errors":         float64(agg.errors),
		"throughput_rps": float64(agg.requests) / agg.elapsed.Seconds(),
		"bytes_per_sec":  float64(agg.bytes) / agg.elapsed.Seconds(),
		"p50_latency_ms": benchio.Quantile(agg.latenciesMS, 0.50),
		"p95_latency_ms": benchio.Quantile(agg.latenciesMS, 0.95),
		"p99_latency_ms": benchio.Quantile(agg.latenciesMS, 0.99),
		"max_latency_ms": benchio.Quantile(agg.latenciesMS, 1),
	}
	if opts.rps > 0 {
		metrics["offered_rps"] = opts.rps
	}
	report.Add(benchio.Result{
		Name: kind + "/predictions",
		Kind: kind,
		Labels: map[string]string{
			"target": opts.target, "conns": fmt.Sprint(opts.conns),
			"duration": opts.duration.String(), "combos": fmt.Sprint(len(combos)),
			"batch_frac": fmt.Sprint(opts.batchFrac), "batch_size": fmt.Sprint(opts.batchSize),
		},
		Metrics: metrics,
	})
	return nil
}

// runOverload is the two-phase overload scenario against a live daemon.
// Phase one measures serving capacity (closed loop at -conns) and the
// uncontended p99; phase two offers -overload-mult times that capacity
// open-loop and reports what admission control made of it: goodput, shed
// rate, and the p99 of the requests that were accepted — the number that
// shows whether accepted work stays fast while overflow is refused.
func runOverload(opts options) error {
	combos, err := resolveCombos(opts)
	if err != nil {
		return err
	}
	if len(combos) == 0 {
		return fmt.Errorf("target serves no combos")
	}
	singles := make([]string, len(combos))
	for i, c := range combos {
		q := url.Values{}
		q.Set("zone", string(c.Zone))
		q.Set("type", string(c.Type))
		q.Set("probability", fmt.Sprint(opts.probability))
		singles[i] = opts.target + "/v1/predictions?" + q.Encode()
	}
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        opts.conns,
			MaxIdleConnsPerHost: opts.conns,
		},
	}

	// Phase 1: capacity probe — closed loop, no batching.
	probe := opts
	probe.rps = 0
	probe.batchFrac = 0
	probeDur := opts.duration / 4
	if probeDur < 2*time.Second {
		probeDur = 2 * time.Second
	}
	if opts.warmup > 0 {
		runWorkers(client, probe, singles, nil, opts.warmup)
	}
	capAgg := runWorkers(client, probe, singles, nil, probeDur)
	accepted := len(capAgg.latenciesMS)
	if accepted == 0 {
		return fmt.Errorf("capacity probe: no requests accepted (%d sent, %d errors, %d shed)",
			capAgg.requests, capAgg.errors, capAgg.shed)
	}
	capacity := float64(accepted) / capAgg.elapsed.Seconds()
	sort.Float64s(capAgg.latenciesMS)
	baseP99 := benchio.Quantile(capAgg.latenciesMS, 0.99)

	// Phase 2: open loop at a multiple of measured capacity. Latency is
	// measured from the scheduled arrival time, so queueing delay under
	// overload is fully visible.
	over := opts
	over.rps = capacity * opts.overloadMult
	over.batchFrac = 0
	agg := runWorkers(client, over, singles, nil, opts.duration)
	if agg.requests == 0 {
		return fmt.Errorf("overload phase made no requests")
	}
	sort.Float64s(agg.latenciesMS)
	p99 := benchio.Quantile(agg.latenciesMS, 0.99)
	metrics := map[string]float64{
		"capacity_rps":    capacity,
		"offered_rps":     over.rps,
		"requests":        float64(agg.requests),
		"accepted":        float64(len(agg.latenciesMS)),
		"shed":            float64(agg.shed),
		"errors":          float64(agg.errors),
		"goodput_rps":     float64(len(agg.latenciesMS)) / agg.elapsed.Seconds(),
		"shed_rate":       float64(agg.shed) / float64(agg.requests),
		"base_p99_ms":     baseP99,
		"accepted_p50_ms": benchio.Quantile(agg.latenciesMS, 0.50),
		"accepted_p99_ms": p99,
		"accepted_max_ms": benchio.Quantile(agg.latenciesMS, 1),
	}
	if baseP99 > 0 {
		metrics["p99_ratio"] = p99 / baseP99
	}
	report := benchio.NewReport(time.Now().UTC())
	report.Add(benchio.Result{
		Name: "overload/predictions",
		Kind: "overload",
		Labels: map[string]string{
			"target": opts.target, "conns": fmt.Sprint(opts.conns),
			"duration": opts.duration.String(), "combos": fmt.Sprint(len(combos)),
			"mult": fmt.Sprint(opts.overloadMult),
		},
		Metrics: metrics,
	})
	if err := benchio.Write(opts.overloadOut, report); err != nil {
		return err
	}
	printSummary(report)
	fmt.Printf("overload report written to %s\n", opts.overloadOut)
	return nil
}

// runTraceOverhead is the tracing-overhead A/B: four in-process servers
// over one shared history store, each driven with the same tight loop
// collecting per-request latencies. The three production-shaped variants —
// metrics on with tracing off, at 1% head sampling (the default, where the
// loop runs almost entirely on the unsampled path), and at 100% sampling
// (every request recorded into the flight ring, the worst case) — isolate
// what tracing itself costs on a server that is already instrumented,
// which is how draftsd always runs. A bare variant (no middleware at all)
// is reported alongside as the wrapper-cost reference. The acceptance bar
// is <=3% p99 overhead for 1% sampling over the tracing-off baseline.
func runTraceOverhead(opts options) error {
	combos := spot.Combos()
	if opts.directCombos > 0 && opts.directCombos < len(combos) {
		combos = combos[:opts.directCombos]
	}
	start := time.Now().UTC().Add(-time.Duration(opts.directTicks) * spot.UpdatePeriod).Truncate(spot.UpdatePeriod)
	st := history.NewStore()
	if err := (pricegen.Generator{Seed: opts.seed}).Populate(st, combos, start, opts.directTicks); err != nil {
		return err
	}
	target := fmt.Sprintf("/v1/predictions?zone=%s&type=%s&probability=%v",
		combos[0].Zone, combos[0].Type, opts.probability)

	variants := []struct {
		name    string
		rate    float64 // negative: no tracer
		metrics bool
	}{
		{"bare", -1, false},
		{"trace-off", -1, true},
		{"trace-1pct", 0.01, true},
		{"trace-100pct", 1, true},
	}
	report := benchio.NewReport(time.Now().UTC())
	labels := map[string]string{"request": target, "duration": opts.duration.String(),
		"baseline": "trace-off (metrics on, no tracer)"}
	p99 := make(map[string]float64, len(variants))
	p50 := make(map[string]float64, len(variants))
	allocs := make(map[string]float64, len(variants))
	for _, v := range variants {
		cfg := service.Config{Source: st, MaxHistory: opts.directTicks}
		if v.metrics {
			cfg.Metrics = telemetry.NewRegistry()
		}
		if v.rate >= 0 {
			tracer, err := trace.New(trace.Config{SampleRate: v.rate, Seed: opts.seed, Now: time.Now})
			if err != nil {
				return err
			}
			cfg.Tracer = tracer
		}
		srv, err := service.New(cfg)
		if err != nil {
			return err
		}
		if err := srv.Refresh(); err != nil {
			return err
		}
		stats, err := measureLatencies(srv.Handler(), target, opts.duration)
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		p99[v.name] = benchio.Quantile(stats.latenciesUS, 0.99)
		p50[v.name] = benchio.Quantile(stats.latenciesUS, 0.50)
		allocs[v.name] = stats.allocsPerOp
		report.Add(benchio.Result{
			Name: "trace/" + v.name, Kind: "trace-overhead", Labels: labels,
			Metrics: map[string]float64{
				"requests": float64(stats.n), "ns_per_op": stats.nsPerOp,
				"allocs_per_op": stats.allocsPerOp, "throughput_rps": stats.rps,
				"p50_latency_us": p50[v.name], "p99_latency_us": p99[v.name],
			},
		})
	}
	overhead := map[string]float64{}
	if base := p99["trace-off"]; base > 0 {
		overhead["p99_overhead_pct_1pct"] = (p99["trace-1pct"]/base - 1) * 100
		overhead["p99_overhead_pct_100pct"] = (p99["trace-100pct"]/base - 1) * 100
	}
	if base := p50["trace-off"]; base > 0 {
		overhead["p50_overhead_pct_1pct"] = (p50["trace-1pct"]/base - 1) * 100
		overhead["p50_overhead_pct_100pct"] = (p50["trace-100pct"]/base - 1) * 100
	}
	if bare := p50["bare"]; bare > 0 {
		overhead["middleware_p50_overhead_pct"] = (p50["trace-off"]/bare - 1) * 100
	}
	overhead["allocs_per_op_1pct"] = allocs["trace-1pct"]
	report.Add(benchio.Result{
		Name: "trace/overhead", Kind: "trace-overhead", Labels: labels,
		Metrics: overhead,
	})
	if err := benchio.Write(opts.traceOut, report); err != nil {
		return err
	}
	printSummary(report)
	fmt.Printf("trace-overhead report written to %s\n", opts.traceOut)
	return nil
}

type latencyStats struct {
	n           int
	nsPerOp     float64
	allocsPerOp float64
	rps         float64
	latenciesUS []float64
}

// measureLatencies drives one handler in-process like measureHandler but
// times every request individually, so tail quantiles are comparable
// across variants (the per-op clock reads cost the same in each).
func measureLatencies(h http.Handler, target string, d time.Duration) (latencyStats, error) {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rec := httptest.NewRecorder()
	for i := 0; i < 200; i++ {
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	}
	if rec.Code != http.StatusOK {
		return latencyStats{}, fmt.Errorf("GET %s: status %d: %s", target, rec.Code, rec.Body.String())
	}
	lat := make([]float64, 0, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	began := time.Now()
	deadline := began.Add(d)
	for time.Now().Before(deadline) {
		for i := 0; i < 64; i++ {
			rec.Body.Reset()
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	elapsed := time.Since(began)
	runtime.ReadMemStats(&after)
	n := len(lat)
	sort.Float64s(lat)
	return latencyStats{
		n:           n,
		nsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
		allocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
		rps:         float64(n) / elapsed.Seconds(),
		latenciesUS: lat,
	}, nil
}

// resolveCombos parses -combos or asks the target's /v1/combos.
func resolveCombos(opts options) ([]spot.Combo, error) {
	if opts.combos != "" {
		var out []spot.Combo
		for _, part := range strings.Split(opts.combos, ",") {
			zone, typ, ok := strings.Cut(strings.TrimSpace(part), "/")
			if !ok {
				return nil, fmt.Errorf("combo %q must be zone/type", part)
			}
			out = append(out, spot.Combo{Zone: spot.Zone(zone), Type: spot.InstanceType(typ)})
		}
		return out, nil
	}
	resp, err := http.Get(opts.target + "/v1/combos")
	if err != nil {
		return nil, fmt.Errorf("fetching combos: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetching combos: %s", resp.Status)
	}
	var raw []struct {
		Zone         string `json:"zone"`
		InstanceType string `json:"instance_type"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("decoding combos: %w", err)
	}
	out := make([]spot.Combo, len(raw))
	for i, r := range raw {
		out[i] = spot.Combo{Zone: spot.Zone(r.Zone), Type: spot.InstanceType(r.InstanceType)}
	}
	return out, nil
}

type aggregate struct {
	requests    int
	errors      int
	shed        int // 503s: admission control refused the request
	bytes       int64
	latenciesMS []float64 // accepted (200) requests only
	elapsed     time.Duration
}

// runWorkers fans opts.conns workers out against the URL mix for d. In the
// open-loop shape each worker paces arrivals at rps/conns and measures from
// the scheduled arrival time.
func runWorkers(client *http.Client, opts options, singles, batches []string, d time.Duration) aggregate {
	type workerStats struct {
		requests int
		errors   int
		shed     int
		bytes    int64
		lat      []float64
	}
	stats := make([]workerStats, opts.conns)
	began := time.Now()
	deadline := began.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < opts.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.seed + int64(w)))
			ws := &stats[w]
			var interval time.Duration
			next := began
			if opts.rps > 0 {
				interval = time.Duration(float64(opts.conns) / opts.rps * float64(time.Second))
				next = began.Add(time.Duration(w) * interval / time.Duration(opts.conns))
			}
			for {
				var startedAt time.Time
				if opts.rps > 0 {
					next = next.Add(interval)
					if next.After(deadline) {
						return
					}
					time.Sleep(time.Until(next))
					startedAt = next // scheduled arrival: no coordinated omission
				} else {
					if !time.Now().Before(deadline) {
						return
					}
					startedAt = time.Now()
				}
				target := singles[rng.Intn(len(singles))]
				if len(batches) > 0 && rng.Float64() < opts.batchFrac {
					target = batches[rng.Intn(len(batches))]
				}
				n, status, err := fetch(client, target)
				ws.requests++
				switch {
				case err != nil:
					ws.errors++
				case status == http.StatusOK:
					ws.bytes += n
					ws.lat = append(ws.lat, float64(time.Since(startedAt).Nanoseconds())/1e6)
				case status == http.StatusServiceUnavailable:
					ws.shed++
				default:
					ws.errors++
				}
			}
		}(w)
	}
	wg.Wait()
	agg := aggregate{elapsed: time.Since(began)}
	for _, ws := range stats {
		agg.requests += ws.requests
		agg.errors += ws.errors
		agg.shed += ws.shed
		agg.bytes += ws.bytes
		agg.latenciesMS = append(agg.latenciesMS, ws.lat...)
	}
	return agg
}

// fetch drains one response and reports its status: overload scenarios
// must tell a shed 503 (an admission-control outcome worth counting) from
// a transport failure.
func fetch(client *http.Client, target string) (int64, int, error) {
	resp, err := client.Get(target)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return n, resp.StatusCode, err
	}
	return n, resp.StatusCode, nil
}

func printSummary(report *benchio.Report) {
	fmt.Printf("machine: %s %s/%s, %d CPUs, %s\n",
		report.Machine.GoVersion, report.Machine.GOOS, report.Machine.GOARCH,
		report.Machine.NumCPU, report.Machine.CPUModel)
	for _, res := range report.Results {
		fmt.Printf("%-34s", res.Name)
		keys := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %s=%.6g", k, res.Metrics[k])
		}
		fmt.Println()
	}
}
