// Cluster roles for draftsd beyond the default writer: replicas install
// epochs shipped from a writer and serve the same read API from them;
// routers own no tables at all and forward reads over the consistent-hash
// ring that membership maintains.
package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/drafts-go/drafts/internal/cluster"
	"github.com/drafts-go/drafts/internal/service"
	"github.com/drafts-go/drafts/internal/store"
	"github.com/drafts-go/drafts/internal/telemetry"
	"github.com/drafts-go/drafts/internal/trace"
)

// runReplica serves the read API from epochs pulled off a writer. The
// replica never computes tables: a Receiver streams each epoch, verifies
// it, and installs it behind the same atomic pointer swap the writer's
// refresh uses, so cached reads keep their zero-allocation path.
func runReplica(logger *slog.Logger, opts options) error {
	if opts.replicaOf == "" {
		return fmt.Errorf("-role=replica requires -replica-of=<writer base URL>")
	}

	reg := telemetry.NewRegistry()
	store.RegisterMetrics(reg)
	cluster.RegisterMetrics(reg)
	telemetry.RegisterRuntime(reg)

	tracer, err := newTracer(opts)
	if err != nil {
		return err
	}
	registerTracerStats(reg, tracer)

	// Replicas enforce the same tenant registry as the writer: identity and
	// quotas are per-node state (each node refills its own buckets), but
	// the registry file — and therefore the key space and account mappings
	// — is shared.
	tenants, mappings, err := loadTenants(logger, opts)
	if err != nil {
		return err
	}

	srv, err := service.NewReplica(service.Config{
		Logger:          logger,
		Metrics:         reg,
		MaxConcurrent:   opts.maxConcurrent,
		MaxQueue:        opts.maxQueue,
		QueueWait:       opts.queueWait,
		MaxStaleness:    opts.maxStaleness,
		Tracer:          tracer,
		Tenants:         tenants,
		AccountMappings: mappings,
	})
	if err != nil {
		return err
	}

	recvCfg := cluster.ReceiverConfig{
		Writer: strings.TrimRight(opts.replicaOf, "/"),
		Server: srv,
		Now:    time.Now,
		Seed:   opts.seed,
		Tracer: tracer,
		Logger: logger,
	}

	// With -data-dir the replica also mirrors the writer's tick WAL so a
	// promotion has the raw histories to refresh from. Same typed-nil rule
	// as the shipper's WAL: only assign the interface when the store exists.
	var mirror *store.Store
	if opts.stateDir != "" {
		policy, err := store.ParseFsyncPolicy(opts.fsync)
		if err != nil {
			return err
		}
		mirror, err = store.Open(opts.stateDir, store.Options{Fsync: policy})
		if err != nil {
			return fmt.Errorf("opening mirror state: %w", err)
		}
		defer func() {
			if err := mirror.Close(); err != nil {
				logger.Error("closing mirror state", "err", err)
			}
		}()
		recvCfg.Mirror = mirror
		recvCfg.MirrorPath = filepath.Join(opts.stateDir, "replica-cursor.json")
	}

	recv, err := cluster.NewReceiver(recvCfg)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	mem, err := startMembership(ctx, logger, opts)
	if err != nil {
		return err
	}

	go func() { recv.Run(ctx) }()

	node := &cluster.Node{
		Role:       "replica",
		Self:       opts.advertise,
		Epochs:     srv,
		Receiver:   recv,
		Membership: mem,
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("GET /v1/cluster/status", node.StatusHandler())

	logger.Info("draftsd listening",
		"addr", opts.addr, "role", "replica", "replica_of", recvCfg.Writer)
	return serve(ctx, logger, opts.addr, mux)
}

// runRouter serves nothing locally: every read is forwarded to the ring
// node that owns its key, with clockwise failover on the same conditions
// the client retries on. Advise is placed by combo like predictions:
// every node answers it from its epoch's surfaces.
func runRouter(logger *slog.Logger, opts options) error {
	if opts.peers == "" {
		return fmt.Errorf("-role=router requires -peers=<node URL>[,<node URL>...]")
	}

	reg := telemetry.NewRegistry()
	cluster.RegisterMetrics(reg)
	telemetry.RegisterRuntime(reg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	mem, err := startMembership(ctx, logger, opts)
	if err != nil {
		return err
	}

	router, err := cluster.NewRouter(cluster.RouterConfig{
		Membership: mem,
		Logger:     logger,
	})
	if err != nil {
		return err
	}

	node := &cluster.Node{Role: "router", Self: opts.advertise, Membership: mem}

	mux := http.NewServeMux()
	mux.Handle("/v1/", router)
	mux.Handle("GET /healthz", node.HealthHandler())
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("GET /v1/cluster/status", node.StatusHandler())

	logger.Info("draftsd listening",
		"addr", opts.addr, "role", "router", "peers", opts.peers)
	return serve(ctx, logger, opts.addr, mux)
}

// newTracer builds the request tracer from the trace flags, time-seeding
// the trace ID generator when no explicit seed is given.
func newTracer(opts options) (*trace.Tracer, error) {
	traceSeed := opts.traceSeed
	if traceSeed == 0 {
		traceSeed = time.Now().UnixNano()
	}
	tracer, err := trace.New(trace.Config{
		SampleRate:    opts.traceSample,
		Seed:          traceSeed,
		Now:           time.Now,
		SlowThreshold: opts.traceSlow,
		FlightRecent:  opts.flightSize,
		FlightErrors:  opts.flightSize,
	})
	if err != nil {
		return nil, fmt.Errorf("configuring tracer: %w", err)
	}
	return tracer, nil
}

// startMembership begins peer polling when -peers is set; every role can
// carry it, routers must. Returns nil (and no error) when unconfigured.
func startMembership(ctx context.Context, logger *slog.Logger, opts options) (*cluster.Membership, error) {
	peers := splitPeers(opts.peers)
	if len(peers) == 0 {
		return nil, nil
	}
	mem, err := cluster.NewMembership(cluster.MembershipConfig{
		Self:   opts.advertise,
		Peers:  peers,
		Logger: logger,
	})
	if err != nil {
		return nil, err
	}
	go func() { mem.Run(ctx) }()
	return mem, nil
}

// splitPeers parses the -peers list, trimming whitespace, trailing
// slashes, and empty entries.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// serve runs the HTTP server until the context is cancelled, then drains
// in-flight requests within shutdownTimeout. Shared by all three roles.
func serve(ctx context.Context, logger *slog.Logger, addr string, handler http.Handler) error {
	hs := &http.Server{Addr: addr, Handler: handler}
	done := make(chan error, 1)
	go func() {
		// On signal: stop accepting, drain in-flight requests, and let the
		// cancelled ctx wind down the background loops.
		<-ctx.Done()
		logger.Info("shutting down", "timeout", shutdownTimeout)
		// Derived from ctx but not cancelled with it: the drain must outlive
		// the signal that triggered it, bounded only by the timeout.
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), shutdownTimeout)
		defer cancel()
		done <- hs.Shutdown(sctx)
	}()
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-done; err != nil {
		return err
	}
	logger.Info("draftsd stopped")
	return nil
}
