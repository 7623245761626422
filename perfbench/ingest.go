package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/service"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/store"
	"github.com/drafts-go/drafts/internal/telemetry"
)

// ingestSize is the ingest workload's shape at one scale.
type ingestSize struct {
	combos, days int
	readRate     float64 // reads beside the refresh cycles
	setups       int
	restarts     int
	shadows      int // shadow predictors timed per cycle in a traced run
}

var ingestSizes = map[scale]ingestSize{
	fullScale: {combos: 60, days: 90, readRate: 1000, setups: 3, restarts: 4, shadows: 8},
	tinyScale: {combos: 4, days: 7, readRate: 200, setups: 1, restarts: 2, shadows: 2},
}

// ticksPerCycle is what a 15-minute refresh period accumulates per combo.
const ticksPerCycle = 3

// ingestEnv is one set-up ingest workload: histories, a durable store on
// disk, and a writer server whose refresh this benchmark drives.
type ingestEnv struct {
	dir    string
	seed   int64
	combos []spot.Combo
	hist   *history.Store
	st     *store.Store
	srv    *service.Server
	reg    *telemetry.Registry
	base   string
	stop   func()

	traced  bool // wrappers record layer timings
	mu      sync.Mutex
	epochAt time.Time // when OnEpoch last fired
	layer   map[string][]float64
}

func (env *ingestEnv) record(name string, v float64) {
	env.mu.Lock()
	env.layer[name] = append(env.layer[name], v)
	env.mu.Unlock()
}

// timedSource wraps Config.Source to time Full, the history layer's cost
// inside a refresh.
type timedSource struct {
	env  *ingestEnv
	hist *history.Store
}

func (s timedSource) Combos() []spot.Combo { return s.hist.Combos() }

func (s timedSource) Full(c spot.Combo) (*history.Series, bool) {
	if !s.env.traced {
		return s.hist.Full(c)
	}
	t := now()
	ser, ok := s.hist.Full(c)
	s.env.record("history.full_us", us(now().Sub(t)))
	return ser, ok
}

// timedDurable wraps Config.Durable to time snapshot writes and WAL
// compaction.
type timedDurable struct {
	env *ingestEnv
	st  *store.Store
}

func (d timedDurable) WriteSnapshot(payload []byte) error {
	if !d.env.traced {
		return d.st.WriteSnapshot(payload)
	}
	t := now()
	err := d.st.WriteSnapshot(payload)
	d.env.record("store.write_snapshot_ms", ms(now().Sub(t)))
	return err
}

func (d timedDurable) CompactBefore(oldest time.Time) (int, error) {
	if !d.env.traced {
		return d.st.CompactBefore(oldest)
	}
	t := now()
	n, err := d.st.CompactBefore(oldest)
	d.env.record("store.compact_ms", ms(now().Sub(t)))
	return n, err
}

// preRefresh is the benchmark's PreRefresh hook: it announces
// ticksPerCycle new ticks per combo (pricegen.Generator.Continue), appends
// them to the history and the WAL, and syncs the WAL.
func (env *ingestEnv) preRefresh() error {
	gen := pricegen.Generator{Seed: env.seed}
	var cont, app time.Duration
	appended := 0
	for _, c := range env.combos {
		cur, ok := env.hist.Full(c)
		if !ok {
			return fmt.Errorf("no history for %v", c)
		}
		t := now()
		ext, err := gen.Continue(c, cur.Start, cur.Len(), ticksPerCycle)
		cont += now().Sub(t)
		if err != nil {
			return err
		}
		for i, price := range ext.Prices {
			env.hist.Append(c, cur.Start, price)
			t = now()
			err := env.st.AppendTick(c, ext.TimeAt(i), price)
			app += now().Sub(t)
			if err != nil {
				return err
			}
			appended++
		}
	}
	t := now()
	err := env.st.Sync()
	if env.traced {
		env.record("store.sync_ms", ms(now().Sub(t)))
		env.record("pricegen.continue_ms", ms(cont))
		env.record("store.append_tick_us", us(app)/float64(appended))
	}
	return err
}

// ingestConfig is the writer configuration with this env's hooks.
func (env *ingestEnv) config(hist *history.Store, st *store.Store) (service.Config, error) {
	cfg, err := serverConfig(timedSource{env, hist})
	if err != nil {
		return cfg, err
	}
	cfg.Durable = timedDurable{env, st}
	return cfg, nil
}

// setupIngest generates the histories, seeds a fresh WAL with them, and
// runs the cold refresh (which also writes the first snapshot).
func setupIngest(seed int64, sz ingestSize, dir string, traced bool) (*ingestEnv, error) {
	env := &ingestEnv{dir: dir, seed: seed, traced: traced, layer: map[string][]float64{}}
	env.combos = spot.Combos()[:sz.combos]
	n := sz.days * 24 * 12
	// Histories end at today's UTC midnight: WAL retention is measured from
	// the wall clock, and the generator's diurnal phase stays fixed.
	start := now().UTC().Truncate(24 * time.Hour).Add(-time.Duration(n) * spot.UpdatePeriod)
	env.hist = history.NewStore()
	t := now()
	if err := (pricegen.Generator{Seed: seed}).Populate(env.hist, env.combos, start, n); err != nil {
		return nil, err
	}
	env.record("pricegen.populate_ms", ms(now().Sub(t)))

	t = now()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	env.st = st
	for _, c := range env.combos {
		ser, _ := env.hist.Full(c)
		if err := st.AppendSeries(c, ser); err != nil {
			return nil, err
		}
	}
	if err := st.Sync(); err != nil {
		return nil, err
	}
	env.record("store.seed_ms", ms(now().Sub(t)))

	cfg, err := env.config(env.hist, st)
	if err != nil {
		return nil, err
	}
	cfg.PreRefresh = env.preRefresh
	cfg.OnEpoch = func(*service.Epoch) { env.epochAt = now() }
	env.reg = cfg.Metrics
	if env.srv, err = service.New(cfg); err != nil {
		return nil, err
	}
	t = now()
	if err := env.srv.Refresh(); err != nil {
		return nil, err
	}
	env.record("service.cold_refresh_ms", ms(now().Sub(t)))
	env.base, env.stop, err = loopback(env.srv.Handler())
	return env, err
}

// close stops serving and closes the store.
func (env *ingestEnv) close() error {
	env.stop()
	return env.st.Close()
}

// ingestSpecs draws the reads beside the writes: predictions and advise
// GETs, keys uniform over the catalog.
func ingestSpecs(env *ingestEnv, seed int64, n int) []reqSpec {
	rng := rand.New(rand.NewSource(seed))
	probs := []string{"0.95", "0.99"}
	out := make([]reqSpec, n)
	for i := range out {
		c := env.combos[rng.Intn(len(env.combos))]
		prob := probs[rng.Intn(len(probs))]
		if rng.Intn(5) == 0 {
			out[i] = reqSpec{kind: kindAdvise, method: http.MethodGet,
				url: fmt.Sprintf("%s/v1/advise?zone=%s&type=%s&probability=%s&duration=%dh", env.base, c.Zone, c.Type, prob, 1+rng.Intn(12))}
			continue
		}
		out[i] = reqSpec{kind: kindPredictions, method: http.MethodGet,
			url: fmt.Sprintf("%s/v1/predictions?zone=%s&type=%s&probability=%s", env.base, c.Zone, c.Type, prob)}
	}
	return out
}

// statusCheck accepts 200, and 409 ("cannot guarantee") from advise.
func statusCheck(spec *reqSpec, status int, _ []byte) error {
	if status == http.StatusOK || (spec.kind == kindAdvise && status == http.StatusConflict) {
		return nil
	}
	return fmt.Errorf("status %d", status)
}

// shadow is a predictor kept beside the server's, fed the same ticks, so a
// traced run can time core's refresh steps in isolation.
type shadow struct {
	combo spot.Combo
	pred  *core.Predictor
}

func (env *ingestEnv) newShadows(k int) ([]shadow, error) {
	var out []shadow
	for _, c := range env.combos[:min(k, len(env.combos))] {
		ser, _ := env.hist.Full(c)
		p, err := core.NewPredictor(core.Params{Probability: 0.99}, ser.Start)
		if err != nil {
			return nil, err
		}
		p.ObserveSeries(ser)
		out = append(out, shadow{c, p})
	}
	return out, nil
}

// stepShadows runs one refresh's core work on each shadow: clone, observe
// the new ticks, build the table and the advise surface.
func (env *ingestEnv) stepShadows(shadows []shadow) error {
	for i := range shadows {
		sh := &shadows[i]
		ser, _ := env.hist.Full(sh.combo)
		fresh := ser.Prices[ser.Len()-ticksPerCycle:]
		t := now()
		p := sh.pred.Clone()
		env.record("core.clone_us", us(now().Sub(t)))
		t = now()
		for _, v := range fresh {
			p.Observe(v)
		}
		env.record("core.observe_ns", float64(now().Sub(t))/float64(len(fresh)))
		t = now()
		if _, ok := p.Table(); !ok {
			return fmt.Errorf("shadow %v: no table", sh.combo)
		}
		env.record("core.table_us", us(now().Sub(t)))
		t = now()
		p.Surface()
		env.record("core.surface_us", us(now().Sub(t)))
		sh.pred = p
	}
	return nil
}

// get fetches one URL and returns its body.
func get(client *http.Client, url string) ([]byte, error) {
	var buf bytes.Buffer
	status, err := do(client, &reqSpec{method: http.MethodGet, url: url}, &buf)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, status)
	}
	return buf.Bytes(), nil
}

// restart is one warm restart: store.Open -> ReplayHistory ->
// LoadSnapshot -> service.New -> RestoreSnapshot -> first read, which must
// carry exactly the bytes served before the restart.
func (env *ingestEnv) restart(path string, want []byte) (took time.Duration, err error) {
	began := now()
	st, err := store.Open(env.dir, store.Options{})
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	opened := now()
	hist, records, err := st.ReplayHistory()
	if err != nil {
		return 0, err
	}
	replayed := now()
	payload, ok, err := st.LoadSnapshot()
	if err != nil || !ok {
		return 0, fmt.Errorf("load snapshot: ok=%v err=%v", ok, err)
	}
	loaded := now()
	cfg, err := env.config(hist, st)
	if err != nil {
		return 0, err
	}
	srv, err := service.New(cfg)
	if err != nil {
		return 0, err
	}
	if err := srv.RestoreSnapshot(payload); err != nil {
		return 0, err
	}
	restored := now()
	base, stop, err := loopback(srv.Handler())
	if err != nil {
		return 0, err
	}
	defer stop()
	client := newClient(1)
	defer client.CloseIdleConnections()
	body, err := get(client, base+path)
	took = now().Sub(began)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(body, want) {
		return took, &outputError{"restart served different bytes than before it"}
	}
	if env.traced {
		env.record("store.open_ms", ms(opened.Sub(began)))
		env.record("store.replay_ms", ms(replayed.Sub(opened)))
		env.record("store.replay_records", float64(records))
		env.record("store.load_snapshot_ms", ms(loaded.Sub(replayed)))
		env.record("service.restore_ms", ms(restored.Sub(loaded)))
	}
	return took, nil
}

// contentChecksum is an epoch's checksum with its refresh time replaced by
// a fixed one: two epochs agree on it exactly when they serve the same
// tables, listing and surfaces.
func contentChecksum(ep *service.Epoch) (uint64, error) {
	blobs := map[service.BlobKey][]byte{}
	for _, k := range ep.Keys() {
		blobs[k], _ = ep.Blob(k)
	}
	surfaces := map[service.BlobKey][]byte{}
	for _, k := range ep.SurfaceKeys() {
		surfaces[k], _ = ep.Surface(k)
	}
	norm, err := service.NewEpochFull(1, time.Unix(0, 0).UTC(), ep.Combos(), blobs, surfaces)
	if err != nil {
		return 0, err
	}
	return norm.Checksum(), nil
}

// runIngest measures the write path: back-to-back refresh cycles with
// reads beside them, then repeated warm restarts.
func runIngest(ctx context.Context, o options, sc scale) (*result, error) {
	sz := ingestSizes[sc]
	res := newResult()
	var env *ingestEnv
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(env.dir); err != nil {
				return nil, err
			}
		}
		env = nil
		runtime.GC()
		t := now()
		var err error
		env, err = setupIngest(o.seed, sz, filepath.Join(o.workDir, fmt.Sprintf("ingest-%d", i)), o.traced)
		if err != nil {
			return nil, fmt.Errorf("ingest setup: %w", err)
		}
		setups = append(setups, now().Sub(t).Seconds())
	}
	res.e2e["setup_s"] = medianF(setups)
	res.add("setup_s", medianF(setups), "s", len(setups))
	res.note("ingest sizes: combos=%d days=%d ticks_per_cycle=%d read_rate=%g rps restarts=%d fsync=interval",
		sz.combos, sz.days, ticksPerCycle, sz.readRate, sz.restarts)

	var shadows []shadow
	if o.traced {
		var err error
		if shadows, err = env.newShadows(sz.shadows); err != nil {
			return nil, err
		}
	}
	incr0 := env.reg.Counter("drafts_refresh_incremental_total", "").Value()
	built0 := env.reg.Counter("drafts_refresh_combos_computed_total", "").Value()

	// Cycles and reads share the first 85% of the window; the restarts
	// take about the rest.
	cycleDur := o.window * 85 / 100
	conns := runtime.NumCPU()
	client := newClient(conns)
	defer client.CloseIdleConnections()
	specs := ingestSpecs(env, o.seed, int(sz.readRate*cycleDur.Seconds())+1)
	// Reads wait on the runtime timer: nanosleep's parked threads would
	// perturb the CPU-bound refresh they run beside, and these reads queue
	// behind it for about a millisecond anyway.
	openLoop(ctx, client, specs[:min(len(specs), 100)], sz.readRate, 100*time.Millisecond, conns, time.Sleep, statusCheck)

	runtime.GC()
	var reads *phase
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = openLoop(ctx, client, specs, sz.readRate, cycleDur, conns, time.Sleep, statusCheck)
	}()
	var fresh, cycles, tracedCycles, plainCycles []time.Duration
	began := now()
	for len(cycles) < 3 || now().Sub(began) < cycleDur {
		env.traced = o.traced && len(cycles)%2 == 1
		gcTwice()
		seq := env.srv.CurrentEpoch().Seq()
		t := now()
		if err := env.srv.Refresh(); err != nil {
			return nil, err
		}
		took := now().Sub(t)
		cycles = append(cycles, took)
		fresh = append(fresh, env.epochAt.Sub(t))
		if env.traced {
			tracedCycles = append(tracedCycles, took)
		} else {
			plainCycles = append(plainCycles, took)
		}
		if got := env.srv.CurrentEpoch().Seq(); got != seq+1 {
			res.fail("epoch sequence went %d -> %d in one cycle", seq, got)
		}
		if o.traced {
			if err := env.stepShadows(shadows); err != nil {
				return nil, err
			}
		}
	}
	wg.Wait()
	gcTotals(res)
	res.e2e["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(env)
	env.traced = o.traced
	res.count(reads.counts)
	res.count(phaseCounts{attempted: int64(len(cycles)), succeeded: int64(len(cycles))})
	for _, w := range reads.wrong {
		res.fail("%s", w)
	}
	for _, e := range reads.errs {
		res.note("read failed: %s", e)
	}

	res.e2e["primary_ms"] = ms(median(fresh))
	res.e2e["secondary_ms"] = ms(median(cycles))
	res.add("fresh_ms", ms(median(fresh)), "ms", len(fresh))
	res.add("cycle_ms", ms(median(cycles)), "ms", len(cycles))
	rl := reads.latencies(kindPredictions, kindAdvise)
	res.addLatency("read", rl)
	res.add("live_heap_mb", res.e2e["live_heap_mb"], "MB", 1)
	res.addLatency("loadgen.late", reads.late)
	res.note("phase reads rate=%g %s late_p50_us=%.1f", sz.readRate, reads.counts, us(median(reads.late)))

	// The bytes a client holds before the restarts.
	path := fmt.Sprintf("/v1/predictions?zone=%s&type=%s&probability=0.99", env.combos[0].Zone, env.combos[0].Type)
	want, err := get(client, env.base+path)
	if err != nil {
		return nil, err
	}
	if o.traced {
		for i := 0; i < 2; i++ {
			t := now()
			payload, err := env.srv.EncodeSnapshot()
			if err != nil {
				return nil, err
			}
			env.record("service.encode_snapshot_ms", ms(now().Sub(t)))
			env.record("service.snapshot_mb", float64(len(payload))/(1<<20))
		}
	}
	if err := env.close(); err != nil {
		return nil, err
	}
	var restarts []time.Duration
	for i := 0; i < sz.restarts; i++ {
		runtime.GC()
		took, err := env.restart(path, want)
		res.attempted++
		if err != nil {
			res.failed++
			res.fail("restart %d: %v", i, err)
			continue
		}
		restarts = append(restarts, took)
	}
	res.add("restart_ms", ms(median(restarts)), "ms", len(restarts))

	// Incremental == full: a from-scratch refresh of the same histories
	// must serve the same content as the last incremental epoch.
	last := env.srv.CurrentEpoch()
	cfg, err := serverConfig(env.hist)
	if err != nil {
		return nil, err
	}
	full, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := full.Refresh(); err != nil {
		return nil, err
	}
	a, err := contentChecksum(last)
	if err != nil {
		return nil, err
	}
	b, err := contentChecksum(full.CurrentEpoch())
	if err != nil {
		return nil, err
	}
	res.attempted++
	if a != b {
		res.failed++
		res.fail("incremental epoch checksum %x != full refresh %x", a, b)
	}

	if o.traced {
		for name, vs := range env.layer {
			res.layers[name] = medianF(vs)
		}
		incr := env.reg.Counter("drafts_refresh_incremental_total", "").Value() - incr0
		built := env.reg.Counter("drafts_refresh_combos_computed_total", "").Value() - built0
		if built > 0 {
			res.layers["service.incremental_ratio"] = float64(incr) / float64(built)
		}
		res.layers["trace.overhead_pct"] = 100 * (float64(median(tracedCycles)) - float64(median(plainCycles))) / float64(median(plainCycles))
	}
	return res, nil
}
