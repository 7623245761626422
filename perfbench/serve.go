package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/obfuscate"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/qbets"
	"github.com/drafts-go/drafts/internal/service"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/store"
	"github.com/drafts-go/drafts/internal/telemetry"
	"github.com/drafts-go/drafts/internal/tenant"
	"github.com/drafts-go/drafts/internal/trace"
)

// serveSize is the serve workload's shape at one scale.
type serveSize struct {
	combos, days, tenants int
	rate                  float64 // the fixed offered rate, ~1/5 of capacity
	setups                int
	probeIters            int // in-process iterations per cheap route
}

var serveSizes = map[scale]serveSize{
	fullScale: {combos: 452, days: 30, tenants: 8, rate: 6000, setups: 3, probeIters: 20000},
	tinyScale: {combos: 12, days: 30, tenants: 4, rate: 400, setups: 1, probeIters: 500},
}

// serveStart anchors serve histories at a fixed instant, so the inputs
// depend on the seed alone.
var serveStart = time.Date(2016, 9, 1, 0, 0, 0, 0, time.UTC)

const (
	// latencyLimit is the max_rps p99 limit, timed from the due time. It is
	// 10 ms, not 1 ms: on a 2-vCPU VM the generator's own wake-up lateness
	// has a p99 of 1-6 ms at low load, so a 1 ms limit fails at every rate.
	latencyLimit = 10 * time.Millisecond
	fleetCount   = 10
	traceSeed    = 1 // fixed trace ID seed, as draftsd -trace-seed
)

// newRegistry builds the telemetry registry draftsd serves at /metrics.
func newRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	core.RegisterMetrics(reg)
	qbets.RegisterMetrics(reg)
	store.RegisterMetrics(reg)
	telemetry.RegisterRuntime(reg)
	return reg
}

// serverConfig is draftsd's writer configuration at its defaults:
// telemetry on, 1% trace sampling with a fixed seed, MaxConcurrent 256,
// MaxStaleness 2h, and one refresh worker per CPU.
func serverConfig(src service.Source) (service.Config, error) {
	tracer, err := trace.New(trace.Config{SampleRate: 0.01, Seed: traceSeed, Now: time.Now})
	if err != nil {
		return service.Config{}, err
	}
	return service.Config{
		Source:         src,
		RefreshWorkers: runtime.NumCPU(),
		Metrics:        newRegistry(),
		MaxConcurrent:  256,
		AdviseBudget:   2 * time.Second,
		MaxStaleness:   2 * time.Hour,
		Tracer:         tracer,
	}, nil
}

// tenantUser is one API-keyed tenant and the zone names it sees.
type tenantUser struct {
	key   string
	toVis map[spot.Zone]spot.Zone // physical -> visible; nil for the canonical view
}

func (u tenantUser) visible(z spot.Zone) spot.Zone {
	if v, ok := u.toVis[z]; ok {
		return v
	}
	return z
}

// serveEnv is one set-up serve workload: a refreshed server on loopback.
type serveEnv struct {
	srv    *service.Server
	reg    *tenant.Registry
	users  []tenantUser
	combos []spot.Combo
	base   string
	stop   func()
	wrap   *timedHandler
}

// setupServe generates the histories, builds the multi-tenant server,
// runs the one cold refresh, and starts serving on loopback.
func setupServe(seed int64, sz serveSize) (*serveEnv, error) {
	env := &serveEnv{}
	env.combos = spot.Combos()[:sz.combos]
	hist := history.NewStore()
	if err := (pricegen.Generator{Seed: seed}).Populate(hist, env.combos, serveStart, sz.days*24*12); err != nil {
		return nil, err
	}

	// Half the tenants carry an account mapping, so their reads hit the
	// per-account view blobs. Quotas are far above any offered rate.
	specs := make([]tenant.Spec, sz.tenants)
	mappings := map[string]obfuscate.Mapping{}
	for i := range specs {
		specs[i] = tenant.Spec{ID: fmt.Sprintf("tenant-%d", i), Key: fmt.Sprintf("perfbench-key-%d", i), RPS: 1e9, Burst: 1e9}
		u := tenantUser{key: specs[i].Key}
		if i%2 == 1 {
			account := fmt.Sprintf("acct-%d", i)
			specs[i].Account = account
			mappings[account] = obfuscate.ForAccount(account)
			u.toVis = map[spot.Zone]spot.Zone{}
			for vis, phys := range mappings[account] {
				u.toVis[phys] = vis
			}
		}
		env.users = append(env.users, u)
	}
	reg, err := tenant.New(tenant.Config{}, specs)
	if err != nil {
		return nil, err
	}
	env.reg = reg
	cfg, err := serverConfig(hist)
	if err != nil {
		return nil, err
	}
	cfg.Tenants = reg
	cfg.AccountMappings = mappings
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Refresh(); err != nil {
		return nil, err
	}
	env.srv = srv
	env.wrap = &timedHandler{next: srv.Handler()}
	env.base, env.stop, err = loopback(env.wrap)
	return env, err
}

// timedHandler times ServeHTTP from outside the service while on is set:
// the traced run's wrapper around the service layer under live load.
type timedHandler struct {
	next http.Handler
	on   atomic.Bool
	mu   sync.Mutex
	took []time.Duration
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	t := now()
	h.next.ServeHTTP(w, r)
	d := now().Sub(t)
	h.mu.Lock()
	h.took = append(h.took, d)
	h.mu.Unlock()
}

// serveSpecs draws the serve mix from the seed: 70% predictions (half
// revalidating with If-None-Match), 15% advise for 1-12h, 10% tables for 8
// combos, 5% fleet with count 10 (half filtered by a type prefix). Keys
// and tenants are uniform.
func serveSpecs(env *serveEnv, seed int64, n int) []reqSpec {
	rng := rand.New(rand.NewSource(seed))
	ep := env.srv.CurrentEpoch()
	probs := []string{"0.95", "0.99"}
	out := make([]reqSpec, n)
	for i := range out {
		u := env.users[rng.Intn(len(env.users))]
		c := env.combos[rng.Intn(len(env.combos))]
		prob := probs[rng.Intn(len(probs))]
		zone := u.visible(c.Zone)
		s := reqSpec{method: http.MethodGet, key: u.key}
		switch x := rng.Float64(); {
		case x < 0.70:
			s.kind = kindPredictions
			s.url = fmt.Sprintf("%s/v1/predictions?zone=%s&type=%s&probability=%s", env.base, zone, c.Type, prob)
			blob, _ := ep.Blob(service.BlobKey{Zone: string(c.Zone), Type: string(c.Type), Prob: prob})
			s.expect = append(viewBody(blob, c.Zone, zone), '\n') // writeBlob ends every body with a newline
			if rng.Intn(2) == 0 {
				s.kind = kindNotModified
				s.inm = ep.ETag()
			}
		case x < 0.85:
			s.kind = kindAdvise
			s.url = fmt.Sprintf("%s/v1/advise?zone=%s&type=%s&probability=%s&duration=%dh",
				env.base, zone, c.Type, prob, 1+rng.Intn(12))
		case x < 0.95:
			s.kind = kindTables
			names := make([]string, 8)
			for j := range names {
				cj := env.combos[rng.Intn(len(env.combos))]
				names[j] = string(u.visible(cj.Zone)) + "/" + string(cj.Type)
			}
			s.url = fmt.Sprintf("%s/v1/tables?combos=%s&probability=%s", env.base, strings.Join(names, ","), prob)
		default:
			s.kind = kindFleet
			s.method = http.MethodPost
			s.url = env.base + "/v1/fleet"
			// At 0.95 every catalog combo carries 1-12h on 30-day
			// histories; at 0.99 none carries 3h or more, and an empty
			// ranking would exercise no paging.
			req := service.FleetRequest{Duration: fmt.Sprintf("%dh", 1+rng.Intn(12)), Probability: 0.95, Count: fleetCount}
			if rng.Intn(2) == 0 {
				family, _, _ := strings.Cut(string(c.Type), ".")
				req.Types = []string{family + ".*"}
				s.kind = kindFleetFiltered
			}
			s.body, _ = json.Marshal(req)
		}
		out[i] = s
	}
	return out
}

// viewBody is the body a tenant seeing zone phys as vis must receive: the
// canonical blob with its leading zone field renamed.
func viewBody(blob []byte, phys, vis spot.Zone) []byte {
	if phys == vis {
		return blob
	}
	return bytes.Replace(blob, []byte(`{"zone":"`+string(phys)+`"`), []byte(`{"zone":"`+string(vis)+`"`), 1)
}

// serveCheck validates one serve response: predictions byte-equal to the
// epoch's blob (as the tenant sees it), 304 on revalidation, and fleet
// pages non-empty and sorted by (bid, zone, type).
func serveCheck(spec *reqSpec, status int, body []byte) error {
	want := http.StatusOK
	if spec.kind == kindNotModified {
		want = http.StatusNotModified
	}
	if spec.kind == kindAdvise && status == http.StatusConflict {
		return nil // "cannot guarantee" is a correct answer, not a failure
	}
	if status != want {
		return fmt.Errorf("status %d, want %d", status, want)
	}
	switch spec.kind {
	case kindPredictions:
		if !bytes.Equal(body, spec.expect) {
			return &outputError{"predictions body differs from CurrentEpoch().Blob"}
		}
	case kindFleet, kindFleetFiltered:
		var resp service.FleetResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return &outputError{"fleet body: " + err.Error()}
		}
		if len(resp.Results) != min(fleetCount, resp.TotalCompliant) {
			return &outputError{fmt.Sprintf("fleet page holds %d of %d compliant", len(resp.Results), resp.TotalCompliant)}
		}
		if len(resp.Results) == 0 && spec.kind == kindFleet {
			return &outputError{"catalog-wide fleet page empty"}
		}
		for i := 1; i < len(resp.Results); i++ {
			a, b := resp.Results[i-1], resp.Results[i]
			ta, tb := spot.Ticks(a.Bid), spot.Ticks(b.Bid)
			if ta > tb || (ta == tb && (a.Zone > b.Zone || (a.Zone == b.Zone && a.InstanceType >= b.InstanceType))) {
				return &outputError{"fleet page not sorted by (bid, zone, type)"}
			}
		}
	}
	return nil
}

// runServe measures the read path: the fixed-rate phase gives read and
// fleet latency, a search gives max_rps; refresh, store and core stay idle.
func runServe(ctx context.Context, o options, sc scale) (*result, error) {
	sz := serveSizes[sc]
	res := newResult()
	var env *serveEnv
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if env != nil {
			env.stop()
			env = nil
		}
		runtime.GC()
		t := now()
		var err error
		env, err = setupServe(o.seed, sz)
		if err != nil {
			return nil, fmt.Errorf("serve setup: %w", err)
		}
		setups = append(setups, now().Sub(t).Seconds())
	}
	defer env.stop()
	res.e2e["setup_s"] = medianF(setups)
	res.add("setup_s", medianF(setups), "s", len(setups))
	res.note("serve sizes: combos=%d days=%d tenants=%d fixed_rate=%g rps conns=%d latency_limit=%v",
		sz.combos, sz.days, sz.tenants, sz.rate, runtime.NumCPU(), latencyLimit)

	conns := runtime.NumCPU()
	client := newClient(conns)
	defer client.CloseIdleConnections()
	// The fixed phase allocates ~60 MB/s against an ~830 MB live heap; 40%
	// of a 25 s window stays inside one GC interval after the forced
	// collection below. A phase that sometimes straddled a collection made
	// read p50 bimodal across runs.
	fixedDur := o.window * 2 / 5
	specs := serveSpecs(env, o.seed, int(sz.rate*fixedDur.Seconds())+1)
	// Warm the connections and the server's lazily built state.
	openLoop(ctx, client, specs, sz.rate, 200*time.Millisecond, conns, nanosleep, serveCheck)

	runtime.GC()
	var fixed *phase
	if o.traced {
		// Half the window untraced, half with the handler wrapper on; the
		// difference in read_p50 is the tracing overhead.
		a := openLoop(ctx, client, specs, sz.rate, fixedDur/2, conns, nanosleep, serveCheck)
		env.wrap.on.Store(true)
		b := openLoop(ctx, client, specs, sz.rate, fixedDur/2, conns, nanosleep, serveCheck)
		env.wrap.on.Store(false)
		pa, pb := median(a.latencies(kindPredictions, kindNotModified)), median(b.latencies(kindPredictions, kindNotModified))
		res.layers["trace.overhead_pct"] = 100 * (float64(pb) - float64(pa)) / float64(pa)
		env.wrap.mu.Lock()
		res.layers["service.handler_p50_ns"] = float64(median(env.wrap.took))
		env.wrap.mu.Unlock()
		fixed = merge(a, b)
	} else {
		fixed = openLoop(ctx, client, specs, sz.rate, fixedDur, conns, nanosleep, serveCheck)
	}
	best, probes := maxRate(ctx, client, specs, 2*sz.rate, 750*time.Millisecond, o.window-fixedDur, conns, latencyLimit, serveCheck)
	gcTotals(res)
	res.e2e["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(env)

	for _, p := range append([]*phase{fixed}, probes...) {
		res.count(p.counts)
		for _, w := range p.wrong {
			res.fail("%s", w)
		}
		for _, e := range p.errs {
			res.note("request failed at %.0f rps: %s", p.rate, e)
		}
	}
	reads := fixed.latencies(kindPredictions, kindNotModified, kindAdvise, kindTables)
	fleet := fixed.latencies(kindFleet, kindFleetFiltered)
	// The gated fleet figure is the catalog-wide ranking alone: the
	// filtered half is cheaper, and a median over a 50/50 mix of two
	// costs sits in the gap between them, where it swings with the mix.
	wide := fixed.latencies(kindFleet)
	res.e2e["primary_ms"] = ms(median(reads))
	res.e2e["secondary_ms"] = ms(median(wide))
	res.addLatency("read", reads)
	res.addLatency("fleet", fleet)
	res.addLatency("fleet_wide", wide)
	res.add("max_rps", best, "1/s", len(probes))
	res.add("live_heap_mb", res.e2e["live_heap_mb"], "MB", 1)
	res.addLatency("loadgen.late", fixed.late)
	res.layers["loadgen.late_p99_us"] = us(quantile(fixed.late, 0.99))
	res.note("phase fixed rate=%g %s late_p50_us=%.1f", fixed.rate, fixed.counts, us(median(fixed.late)))
	for _, p := range probes {
		res.note("phase search rate=%.0f %s p99_us=%.1f tail_lag_us=%.1f pass=%v",
			p.rate, p.counts, us(quantile(p.all, 0.99)), us(p.tailLag), meetsLimit(p, latencyLimit))
	}

	if o.traced {
		if err := serveLayerProbes(env, sz, o.seed, res); err != nil {
			return nil, err
		}
		if err := noopFloor(ctx, sz, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// merge joins two back-to-back phases at the same rate into one.
func merge(a, b *phase) *phase {
	p := &phase{rate: a.rate}
	for k := range p.lat {
		p.lat[k] = append(append([]time.Duration(nil), a.lat[k]...), b.lat[k]...)
	}
	p.all = append(append([]time.Duration(nil), a.all...), b.all...)
	p.late = append(append([]time.Duration(nil), a.late...), b.late...)
	p.counts = phaseCounts{a.counts.attempted + b.counts.attempted, a.counts.succeeded + b.counts.succeeded, a.counts.failed + b.counts.failed}
	p.errs = append(append([]string(nil), a.errs...), b.errs...)
	p.wrong = append(append([]string(nil), a.wrong...), b.wrong...)
	p.tailLag = b.tailLag
	return p
}

// noopFloor runs the same generator against a no-op handler on loopback:
// the transport floor no service change can reduce.
func noopFloor(ctx context.Context, sz serveSize, res *result) error {
	base, stop, err := loopback(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("{}"))
	}))
	if err != nil {
		return err
	}
	defer stop()
	client := newClient(runtime.NumCPU())
	defer client.CloseIdleConnections()
	specs := []reqSpec{{kind: kindNoop, method: http.MethodGet, url: base + "/"}}
	ok := func(_ *reqSpec, status int, _ []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("status %d", status)
		}
		return nil
	}
	runtime.GC()
	p := openLoop(ctx, client, specs, sz.rate, 1500*time.Millisecond, runtime.NumCPU(), nanosleep, ok)
	res.count(p.counts)
	res.layers["http.noop_p50_us"] = us(median(p.lat[kindNoop]))
	return nil
}

// discardWriter is a reusable ResponseWriter for in-process handler
// timing.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(s int)           { d.status = s }

// rewindBody replays one request body without allocating.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// timeHandler calls h.ServeHTTP iters times over reqs (cycled) in-process
// and returns ns and heap allocations per call.
func timeHandler(h http.Handler, reqs []*http.Request, bodies [][]byte, iters int, wantStatus int) (nsPer, allocsPer float64, err error) {
	w := &discardWriter{h: http.Header{}}
	readers := make([]rewindBody, len(reqs))
	for i, r := range reqs {
		if bodies != nil {
			readers[i] = rewindBody{bytes.NewReader(bodies[i])}
			r.Body = readers[i]
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := now()
	for i := 0; i < iters; i++ {
		j := i % len(reqs)
		if bodies != nil {
			readers[j].Reset(bodies[j])
		}
		w.status = http.StatusOK
		h.ServeHTTP(w, reqs[j])
		if w.status != wantStatus && !(w.status == http.StatusConflict && wantStatus == http.StatusOK) {
			return 0, 0, fmt.Errorf("%s: status %d, want %d", reqs[j].URL, w.status, wantStatus)
		}
	}
	d := now().Sub(t)
	runtime.ReadMemStats(&m1)
	return float64(d) / float64(iters), float64(m1.Mallocs-m0.Mallocs) / float64(iters), nil
}

// serveLayerProbes times the service, tenant and core-surface layers
// in-process over the workload's own server, keys and tenants.
func serveLayerProbes(env *serveEnv, sz serveSize, seed int64, res *result) error {
	h := env.srv.Handler()
	specs := serveSpecs(env, seed+1, 4000)
	byKind := map[int][]*http.Request{}
	bodies := map[int][][]byte{} // request bodies, aligned with byKind
	for i := range specs {
		s := &specs[i]
		var body io.Reader
		if s.body != nil {
			body = bytes.NewReader(s.body)
			bodies[s.kind] = append(bodies[s.kind], s.body)
		}
		r, err := http.NewRequest(s.method, s.url, body)
		if err != nil {
			return err
		}
		r.Header.Set("Authorization", "Bearer "+s.key)
		if s.inm != "" {
			r.Header.Set("If-None-Match", s.inm)
		}
		byKind[s.kind] = append(byKind[s.kind], r)
	}
	type route struct {
		kind   int
		name   string
		iters  int
		status int
	}
	for _, rt := range []route{
		{kindPredictions, "predictions", sz.probeIters, http.StatusOK},
		{kindNotModified, "not_modified", sz.probeIters, http.StatusNotModified},
		{kindTables, "tables", sz.probeIters / 4, http.StatusOK},
		{kindAdvise, "advise", sz.probeIters, http.StatusOK},
		{kindFleet, "fleet", sz.probeIters / 10, http.StatusOK},
	} {
		ns, allocs, err := timeHandler(h, byKind[rt.kind], bodies[rt.kind], max(rt.iters, 1), rt.status)
		if err != nil {
			return fmt.Errorf("probe %s: %w", rt.name, err)
		}
		res.layers["service."+rt.name+"_ns"] = ns
		switch rt.kind {
		case kindPredictions:
			res.layers["service.predictions_allocs"] = allocs
		case kindFleet:
			res.layers["service.fleet_allocs"] = allocs
		}
	}

	// Tenant layer: key lookup and token-bucket admission.
	keys := make([]string, len(env.users))
	for i, u := range env.users {
		keys[i] = u.key
	}
	iters := sz.probeIters * 5
	t := now()
	var tn *tenant.Tenant
	for i := 0; i < iters; i++ {
		tn = env.reg.Lookup(keys[i%len(keys)])
	}
	res.layers["tenant.lookup_ns"] = float64(now().Sub(t)) / float64(iters)
	t = now()
	for i := 0; i < iters; i++ {
		if ok, _ := tn.Allow(); !ok {
			return fmt.Errorf("tenant quota refused a probe")
		}
	}
	res.layers["tenant.allow_ns"] = float64(now().Sub(t)) / float64(iters)

	// Core: advise-surface lookups on surfaces built from the same
	// histories the server refreshed from.
	var surfs []*core.AdviseSurface
	for _, c := range env.combos[:min(4, len(env.combos))] {
		ser, err := (pricegen.Generator{Seed: seed}).Series(c, serveStart, sz.days*24*12)
		if err != nil {
			return err
		}
		p, err := core.NewPredictor(core.Params{Probability: 0.99}, ser.Start)
		if err != nil {
			return err
		}
		p.ObserveSeries(ser)
		if s, ok := p.Surface(); ok {
			surfs = append(surfs, s)
		}
	}
	if len(surfs) == 0 {
		return fmt.Errorf("no advise surface built")
	}
	ds := make([]time.Duration, 64)
	rng := rand.New(rand.NewSource(seed))
	for i := range ds {
		ds[i] = time.Duration(1+rng.Intn(12*60)) * time.Minute
	}
	t = now()
	for i := 0; i < iters; i++ {
		surfs[i%len(surfs)].Lookup(ds[i%len(ds)])
	}
	res.layers["core.surface_lookup_ns"] = float64(now().Sub(t)) / float64(iters)
	return nil
}
