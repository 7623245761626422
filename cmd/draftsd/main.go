// Command draftsd runs the DrAFTS prediction service (§3.3): it maintains
// price histories for a set of markets, recomputes bid tables for the 0.95
// and 0.99 probability levels every 15 minutes, and serves them over REST.
//
// Without real market feeds, histories come from the synthetic generator
// (-days of history, regenerated live as the market simulator would emit
// them). Endpoints:
//
//	GET /healthz        (status, table count, staleness, last refresh error)
//	GET /metrics        (Prometheus text format)
//	GET /v1/combos
//	GET /v1/predictions?zone=Z&type=T&probability=P
//	GET /v1/tables?combos=Z/T,Z/T&probability=P   (batched tables)
//	GET /v1/advise?zone=Z&type=T&probability=P&duration=2h
//	GET /debug/flight   (flight recorder: recent + error traces, JSON)
//	GET /debug/pprof/   (only with -pprof)
//
// Table reads are served from pre-encoded blobs with a refresh-epoch ETag
// (If-None-Match revalidation answers 304); perfbench's serve workload
// measures this path.
//
// With -data-dir the daemon keeps durable state — a write-ahead log of
// every price tick plus snapshots of the served tables — and a restart
// recovers it: the last good bid tables serve immediately while the first
// fresh refresh runs in the background. Keep -seed stable across restarts
// of the same -data-dir; the synthetic market is continued
// deterministically from the recovered history.
//
// The daemon drains in-flight requests and stops the refresh loop on
// SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/drafts-go/drafts/internal/cloudsim"
	"github.com/drafts-go/drafts/internal/cluster"
	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/market"
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

// shutdownTimeout bounds the drain of in-flight requests after a signal.
const shutdownTimeout = 10 * time.Second

// options collects the daemon's flag values.
type options struct {
	addr           string
	days           int
	seed           int64
	nCombos        int
	refresh        time.Duration
	refreshWorkers int
	dataDir        string // marketgen input histories (read-only)
	stateDir       string // durable WAL + snapshot state (-data-dir)
	fsync          string
	pprofOn        bool

	maxConcurrent int
	maxQueue      int
	queueWait     time.Duration
	maxStaleness  time.Duration

	tenantsFile string  // tenant registry JSON (empty = anonymous service)
	tenantRPS   float64 // default per-tenant steady rate (scaled by weight)
	tenantBurst float64 // default per-tenant burst (0 = 2x rate)

	traceSample float64
	traceSlow   time.Duration
	traceSeed   int64
	flightSize  int

	role      string // writer | replica | router
	replicaOf string // writer base URL (replica role)
	peers     string // comma-separated peer base URLs (membership/ring)
	advertise string // this node's own base URL as peers reach it
}

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", ":8732", "listen address")
	flag.IntVar(&opts.days, "days", 90, "days of synthetic history per combo")
	flag.Int64Var(&opts.seed, "seed", 42, "history generator seed (keep stable across restarts of one -data-dir)")
	flag.IntVar(&opts.nCombos, "combos", 60, "number of combos to serve (0 = all 452; full refreshes take longer)")
	flag.DurationVar(&opts.refresh, "refresh", 15*time.Minute, "table recomputation period")
	flag.IntVar(&opts.refreshWorkers, "refresh-workers", 0, "refresh worker pool size (0 = GOMAXPROCS)")
	flag.StringVar(&opts.dataDir, "data", "", "load price histories from a marketgen output directory instead of generating")
	flag.StringVar(&opts.stateDir, "data-dir", "", "durable state directory (WAL + snapshots); empty disables persistence")
	flag.StringVar(&opts.fsync, "fsync", "interval", "WAL durability policy: always, interval, or none")
	flag.BoolVar(&opts.pprofOn, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.IntVar(&opts.maxConcurrent, "max-concurrent", 256, "in-flight /v1 request cap; 0 disables admission control")
	flag.IntVar(&opts.maxQueue, "max-queue", 0, "admission wait-queue depth (0 = same as -max-concurrent)")
	flag.DurationVar(&opts.queueWait, "queue-wait", 0, "max time a request may queue for admission (0 = 1s)")
	flag.DurationVar(&opts.maxStaleness, "max-staleness", 2*time.Hour, "oldest tables the daemon will serve; beyond this /v1 reads fail 503")
	flag.StringVar(&opts.tenantsFile, "tenants-file", "", "tenant registry JSON; when set every /v1 request must present a registered API key")
	flag.Float64Var(&opts.tenantRPS, "tenant-rps", tenant.DefaultRPS, "default steady request rate per weight-1 tenant (requests/second)")
	flag.Float64Var(&opts.tenantBurst, "tenant-burst", 0, "default per-tenant burst size (0 = twice the tenant's rate)")
	flag.Float64Var(&opts.traceSample, "trace-sample", 0.01, "head-sampling rate for request traces (0 disables sampling; errors are always retained)")
	flag.DurationVar(&opts.traceSlow, "trace-slow", 0, "latency threshold beyond which a trace is retained as slow (0 disables)")
	flag.Int64Var(&opts.traceSeed, "trace-seed", 0, "trace ID generator seed (0 = time-seeded)")
	flag.IntVar(&opts.flightSize, "flight", 0, "flight-recorder ring size per ring (0 = default)")
	flag.StringVar(&opts.role, "role", "writer", "node role: writer (computes tables), replica (installs shipped epochs), or router (forwards reads over the ring)")
	flag.StringVar(&opts.replicaOf, "replica-of", "", "writer base URL to replicate from (required with -role=replica)")
	flag.StringVar(&opts.peers, "peers", "", "comma-separated peer base URLs to poll for ring membership")
	flag.StringVar(&opts.advertise, "advertise", "", "this node's own base URL as peers reach it (e.g. http://10.0.0.2:8732)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	flag.Parse()
	logger := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat == "json")
	slog.SetDefault(logger)
	var err error
	switch opts.role {
	case "writer":
		err = run(logger, opts)
	case "replica":
		err = runReplica(logger, opts)
	case "router":
		err = runRouter(logger, opts)
	default:
		err = fmt.Errorf("unknown -role %q (want writer, replica, or router)", opts.role)
	}
	if err != nil {
		logger.Error("draftsd failed", "err", err)
		os.Exit(1)
	}
}

func run(logger *slog.Logger, opts options) error {
	reg := telemetry.NewRegistry()
	core.RegisterMetrics(reg)
	qbets.RegisterMetrics(reg)
	market.RegisterMetrics(reg)
	cloudsim.RegisterMetrics(reg)
	store.RegisterMetrics(reg)
	cluster.RegisterMetrics(reg)
	telemetry.RegisterRuntime(reg)

	tracer, err := newTracer(opts)
	if err != nil {
		return err
	}
	registerTracerStats(reg, tracer)

	var durable *store.Store
	if opts.stateDir != "" {
		policy, err := store.ParseFsyncPolicy(opts.fsync)
		if err != nil {
			return err
		}
		durable, err = store.Open(opts.stateDir, store.Options{Fsync: policy})
		if err != nil {
			return fmt.Errorf("opening durable state: %w", err)
		}
		defer func() {
			if err := durable.Close(); err != nil {
				logger.Error("closing durable state", "err", err)
			}
		}()
	}

	hist, recovered, err := recoverOrBootstrap(logger, opts, durable)
	if err != nil {
		return err
	}

	// Every epoch the writer installs is also published to the shipper so
	// replicas can pull it. The interface nil-check matters: assign the WAL
	// only when the store exists, or the interface holds a typed nil.
	shipCfg := cluster.ShipperConfig{Logger: logger}
	if durable != nil {
		shipCfg.WAL = durable
	}
	shipper := cluster.NewShipper(shipCfg)

	tenants, mappings, err := loadTenants(logger, opts)
	if err != nil {
		return err
	}

	cfg := service.Config{
		Source:          hist,
		RefreshEvery:    opts.refresh,
		RefreshWorkers:  opts.refreshWorkers,
		Logger:          logger,
		Metrics:         reg,
		MaxConcurrent:   opts.maxConcurrent,
		MaxQueue:        opts.maxQueue,
		QueueWait:       opts.queueWait,
		MaxStaleness:    opts.maxStaleness,
		Tracer:          tracer,
		OnEpoch:         shipper.Publish,
		Tenants:         tenants,
		AccountMappings: mappings,
	}
	if durable != nil {
		cfg.Durable = durable
	}
	if opts.dataDir == "" {
		// Synthetic mode: before each refresh, extend every history with the
		// ticks the market "announced" since the last one we hold,
		// journaling them through the WAL when persistence is on.
		cfg.PreRefresh = extendHistories(logger, opts.seed, hist, durable)
	}
	srv, err := service.New(cfg)
	if err != nil {
		return err
	}

	if recovered {
		// Warm restart: install the last served tables before Start so the
		// first requests are answered from pre-crash state.
		payload, ok, err := durable.LoadSnapshot()
		if err != nil {
			logger.Warn("loading snapshot failed; cold start", "err", err)
		} else if ok {
			if err := srv.RestoreSnapshot(payload); err != nil {
				logger.Warn("restoring snapshot failed; cold start", "err", err)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	mem, err := startMembership(ctx, logger, opts)
	if err != nil {
		return err
	}

	logger.Info("computing initial bid tables")
	if err := srv.Start(ctx); err != nil {
		return err
	}

	node := &cluster.Node{
		Role:       "writer",
		Self:       opts.advertise,
		Epochs:     srv,
		Shipper:    shipper,
		Membership: mem,
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("GET /v1/cluster/ship", shipper.ShipHandler())
	mux.Handle("GET /v1/cluster/wal", shipper.WALHandler())
	mux.Handle("GET /v1/cluster/status", node.StatusHandler())
	if opts.pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}

	logger.Info("draftsd listening",
		"addr", opts.addr, "role", "writer",
		"combos", len(hist.Combos()), "refresh", opts.refresh)
	return serve(ctx, logger, opts.addr, mux)
}

// loadTenants builds the tenant registry and the per-account zone
// mappings from -tenants-file. Both are nil when the flag is unset: the
// daemon stays anonymous and every historical quickstart keeps working.
// Each distinct account named in the registry gets the deterministic
// obfuscation mapping the provider would apply to it (§2.2), so a
// tenant's zone names are stable across restarts and across replicas.
func loadTenants(logger *slog.Logger, opts options) (*tenant.Registry, map[string]obfuscate.Mapping, error) {
	if opts.tenantsFile == "" {
		return nil, nil, nil
	}
	reg, err := tenant.Load(opts.tenantsFile, tenant.Config{
		RPS:   opts.tenantRPS,
		Burst: opts.tenantBurst,
		Now:   time.Now,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("loading tenants: %w", err)
	}
	accounts := reg.Accounts()
	mappings := make(map[string]obfuscate.Mapping, len(accounts))
	for _, a := range accounts {
		mappings[a] = obfuscate.ForAccount(a)
	}
	logger.Info("tenant registry loaded",
		"file", opts.tenantsFile, "tenants", reg.Len(), "accounts", len(accounts))
	return reg, mappings, nil
}

// registerTracerStats publishes the tracer's lifetime counters as gauges,
// sampled at scrape time — the dashboard-side view of how much the flight
// recorder is seeing (and whether spans are overflowing their buffers).
func registerTracerStats(reg *telemetry.Registry, tracer *trace.Tracer) {
	started := reg.Gauge("drafts_trace_started_total", "Traces started.")
	sampled := reg.Gauge("drafts_trace_sampled_total", "Traces head-sampled for recording.")
	recorded := reg.Gauge("drafts_trace_recorded_total", "Traces retained by the flight recorder.")
	errored := reg.Gauge("drafts_trace_error_total", "Error/shed/slow traces retained regardless of sampling.")
	dropped := reg.Gauge("drafts_trace_spans_dropped_total", "Spans dropped by full span buffers.")
	reg.OnScrape(func() {
		s := tracer.Stats()
		started.Set(float64(s.Started))
		sampled.Set(float64(s.Sampled))
		recorded.Set(float64(s.Recorded))
		errored.Set(float64(s.Errors))
		dropped.Set(float64(s.DroppedSpans))
	})
}

// recoverOrBootstrap produces the price-history archive: by WAL replay when
// the durable state holds ticks (recovered=true), otherwise by loading or
// generating fresh histories and journaling them as the WAL's first epoch.
func recoverOrBootstrap(logger *slog.Logger, opts options, durable *store.Store) (*history.Store, bool, error) {
	if durable != nil {
		began := time.Now()
		hist, n, err := durable.ReplayHistory()
		if err != nil {
			return nil, false, fmt.Errorf("replaying WAL: %w", err)
		}
		if n > 0 {
			store.ObserveRecovery(time.Since(began))
			logger.Info("recovered price histories from WAL",
				"records", n, "combos", len(hist.Combos()),
				"torn_bytes_dropped", durable.TornBytes(),
				"elapsed", time.Since(began).Round(time.Millisecond))
			return hist, true, nil
		}
	}

	hist, err := bootstrapHistories(logger, opts)
	if err != nil {
		return nil, false, err
	}
	if durable != nil {
		began := time.Now()
		combos := hist.Combos()
		for _, c := range combos {
			ser, ok := hist.Full(c)
			if !ok {
				continue
			}
			if err := durable.AppendSeries(c, ser); err != nil {
				return nil, false, fmt.Errorf("journaling bootstrap history: %w", err)
			}
		}
		if err := durable.Sync(); err != nil {
			return nil, false, fmt.Errorf("syncing bootstrap WAL: %w", err)
		}
		logger.Info("journaled bootstrap histories",
			"combos", len(combos), "elapsed", time.Since(began).Round(time.Millisecond))
	}
	return hist, false, nil
}

// bootstrapHistories builds the initial archive from a marketgen directory
// or the synthetic generator.
func bootstrapHistories(logger *slog.Logger, opts options) (*history.Store, error) {
	if opts.dataDir != "" {
		st, loaded, err := history.LoadDir(opts.dataDir)
		if err != nil {
			return nil, err
		}
		logger.Info("loaded combo histories", "combos", loaded, "dir", opts.dataDir)
		return st, nil
	}
	combos := spot.Combos()
	if opts.nCombos > 0 && opts.nCombos < len(combos) {
		combos = combos[:opts.nCombos]
	}
	n := opts.days * 24 * 12
	start := time.Now().UTC().Add(-time.Duration(n) * spot.UpdatePeriod).Truncate(spot.UpdatePeriod)
	st := history.NewStore()
	logger.Info("generating combo histories", "combos", len(combos), "days", opts.days)
	if err := (pricegen.Generator{Seed: opts.seed}).Populate(st, combos, start, n); err != nil {
		return nil, err
	}
	return st, nil
}

// extendHistories returns the pre-refresh hook for synthetic mode: it
// advances every combo's history to the present by continuing the
// generator's deterministic walk, appending each new tick to the WAL when
// persistence is on.
func extendHistories(logger *slog.Logger, seed int64, hist *history.Store, durable *store.Store) func() error {
	gen := pricegen.Generator{Seed: seed}
	return func() error {
		now := time.Now().UTC()
		appended := 0
		for _, c := range hist.Combos() {
			cur, ok := hist.Full(c)
			if !ok || cur.Len() == 0 {
				continue
			}
			want := cur.IndexOf(now) + 1
			if want <= cur.Len() {
				continue
			}
			ext, err := gen.Continue(c, cur.Start, cur.Len(), want-cur.Len())
			if err != nil {
				return fmt.Errorf("extending %s: %w", c, err)
			}
			for i, price := range ext.Prices {
				hist.Append(c, cur.Start, price)
				if durable != nil {
					if err := durable.AppendTick(c, ext.TimeAt(i), price); err != nil {
						return fmt.Errorf("journaling tick for %s: %w", c, err)
					}
				}
				appended++
			}
		}
		if durable != nil && appended > 0 {
			if err := durable.Sync(); err != nil {
				return fmt.Errorf("syncing tick journal: %w", err)
			}
		}
		if appended > 0 {
			logger.Debug("extended histories", "new_ticks", appended)
		}
		return nil
	}
}
