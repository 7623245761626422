// The -fleet scenario: stand up a writer (and a replica fed over the
// real ship protocol), prove the replica answers /v1/advise
// byte-identically to the writer over randomized trials, measure the
// per-op cost of a surface-served advise, and measure POST /v1/fleet
// throughput — the catalog-wide argmin the surfaces exist to make cheap.
// Surface-vs-scan equivalence is TestAdviseSurfaceScanEquivalence's job.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"github.com/drafts-go/drafts/internal/benchio"
	"github.com/drafts-go/drafts/internal/cluster"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/service"
	"github.com/drafts-go/drafts/internal/spot"
)

func runFleetBench(opts options) error {
	combos := spot.Combos()
	if opts.directCombos > 0 && opts.directCombos < len(combos) {
		combos = combos[:opts.directCombos]
	}
	if opts.fleetTrials < 1000 {
		return fmt.Errorf("-fleet-trials must be >= 1000 (the equivalence bar)")
	}

	start := time.Now().UTC().Add(-time.Duration(opts.directTicks) * spot.UpdatePeriod).Truncate(spot.UpdatePeriod)
	st := history.NewStore()
	if err := (pricegen.Generator{Seed: opts.seed}).Populate(st, combos, start, opts.directTicks); err != nil {
		return err
	}
	shipper := cluster.NewShipper(cluster.ShipperConfig{MaxWait: time.Second})
	writer, err := service.New(service.Config{
		Source:     st,
		MaxHistory: opts.directTicks,
		OnEpoch:    shipper.Publish,
	})
	if err != nil {
		return err
	}
	if err := writer.Refresh(); err != nil {
		return err
	}
	ship := httptest.NewServer(shipper.ShipHandler())
	defer ship.Close()

	// One replica over the real ship protocol: fleet and surface-path
	// advise answers must be byte-identical to the writer's.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	replica, err := service.NewReplica(service.Config{})
	if err != nil {
		return err
	}
	receiver, err := cluster.NewReceiver(cluster.ReceiverConfig{
		Writer:       ship.URL,
		Server:       replica,
		Now:          time.Now,
		HTTPClient:   ship.Client(),
		PollInterval: 50 * time.Millisecond,
		LongPoll:     time.Second,
		Seed:         opts.seed,
	})
	if err != nil {
		return err
	}
	go func() { receiver.Run(ctx) }()
	deadline := time.Now().Add(30 * time.Second)
	want := writer.CurrentEpoch().Seq()
	for {
		if cur := replica.CurrentEpoch(); cur != nil && cur.Seq() >= want {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica did not reach epoch %d in 30s", want)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Equivalence: the replica against the writer over randomized
	// (combo, probability, duration) trials — identical status and
	// identical bytes, successes and refusals alike.
	rng := rand.New(rand.NewSource(opts.seed))
	probs := []float64{0.95, 0.99}
	fast := writer.Handler()
	repl := replica.Handler()
	replicaMismatches, refusals := 0, 0
	for trial := 0; trial < opts.fleetTrials; trial++ {
		combo := combos[rng.Intn(len(combos))]
		prob := probs[rng.Intn(len(probs))]
		// Durations mix short off-grid values (mostly guaranteeable, so
		// the success body path is exercised), grid-aligned hours, and a
		// long tail that forces refusals.
		var d time.Duration
		switch trial % 3 {
		case 0:
			d = time.Duration(1+rng.Intn(300)) * time.Minute
		case 1:
			d = time.Duration(1+rng.Intn(168)) * time.Hour
		default:
			d = time.Duration(1+rng.Intn(90*24))*time.Hour + time.Duration(rng.Intn(3600))*time.Second
		}
		target := fmt.Sprintf("/v1/advise?zone=%s&type=%s&probability=%v&duration=%s",
			combo.Zone, combo.Type, prob, d)
		fs, fb := adviseOnce(fast, target)
		if fs != http.StatusOK {
			refusals++
		}
		rs, rb := adviseOnce(repl, target)
		if rs != fs || !bytes.Equal(rb, fb) {
			replicaMismatches++
			if replicaMismatches <= 3 {
				fmt.Printf("fleet: REPLICA MISMATCH %s\n  writer: %d %s\n  replica: %d %s\n", target, fs, fb, rs, rb)
			}
		}
	}

	// Per-op cost of one representative advise query. The duration is
	// probed downward so the success path is measured regardless of what
	// the generated history can guarantee.
	var adviseTarget, benchDur string
	for _, probe := range []string{"24h", "12h", "6h", "2h", "1h", "30m", "5m"} {
		t := fmt.Sprintf("/v1/advise?zone=%s&type=%s&probability=%v&duration=%s",
			combos[0].Zone, combos[0].Type, opts.probability, probe)
		if status, _ := adviseOnce(fast, t); status == http.StatusOK {
			adviseTarget, benchDur = t, probe
			break
		}
	}
	if adviseTarget == "" {
		return fmt.Errorf("no probe duration is guaranteeable on %s", combos[0])
	}
	surfaceStats, err := measureHandler(fast, adviseTarget, opts.duration)
	if err != nil {
		return fmt.Errorf("advise surface path: %w", err)
	}

	// Fleet throughput: the full catalog ranked per request.
	fleetBody := []byte(fmt.Sprintf(`{"duration":%q,"probability":%v,"count":100}`, benchDur, opts.probability))
	fleetStats, err := measurePostHandler(fast, "/v1/fleet", fleetBody, opts.duration)
	if err != nil {
		return fmt.Errorf("fleet throughput: %w", err)
	}

	labels := map[string]string{
		"combos":   fmt.Sprintf("%d", len(combos)),
		"trials":   fmt.Sprintf("%d", opts.fleetTrials),
		"request":  adviseTarget,
		"duration": opts.duration.String(),
	}
	report := benchio.NewReport(time.Now().UTC())
	report.Add(benchio.Result{
		Name: "fleet/advise-equivalence", Kind: "fleet", Labels: labels,
		Metrics: map[string]float64{
			"trials":             float64(opts.fleetTrials),
			"replica_mismatches": float64(replicaMismatches),
			"refusals":           float64(refusals),
		},
	})
	report.Add(benchio.Result{
		Name: "fleet/advise-surface", Kind: "fleet", Labels: labels,
		Metrics: map[string]float64{
			"requests": float64(surfaceStats.n), "ns_per_op": surfaceStats.nsPerOp,
			"allocs_per_op": surfaceStats.allocsPerOp, "throughput_rps": surfaceStats.rps,
		},
	})
	fleetLabels := map[string]string{
		"combos":   labels["combos"],
		"trials":   labels["trials"],
		"request":  "POST /v1/fleet " + string(fleetBody),
		"duration": labels["duration"],
	}
	report.Add(benchio.Result{
		Name: "fleet/fleet-query", Kind: "fleet", Labels: fleetLabels,
		Metrics: map[string]float64{
			"requests": float64(fleetStats.n), "ns_per_op": fleetStats.nsPerOp,
			"allocs_per_op": fleetStats.allocsPerOp, "throughput_rps": fleetStats.rps,
		},
	})
	if err := benchio.Write(opts.fleetOut, report); err != nil {
		return err
	}
	fmt.Printf("fleet: %d trials, %d replica mismatches; advise %.0f ns/op, %.1f allocs/op; fleet %.0f qps\n",
		opts.fleetTrials, replicaMismatches,
		surfaceStats.nsPerOp, surfaceStats.allocsPerOp, fleetStats.rps)
	fmt.Printf("fleet report written to %s\n", opts.fleetOut)
	if replicaMismatches > 0 {
		return fmt.Errorf("fleet: writer/replica advise equivalence violated (%d mismatches)", replicaMismatches)
	}
	return nil
}

// adviseOnce performs one in-process GET and returns status + body bytes.
func adviseOnce(h http.Handler, target string) (int, []byte) {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// measurePostHandler is measureHandler for POST endpoints: the body is
// replayed from a fresh reader per request (the rewind is client-side
// cost, identical across variants).
func measurePostHandler(h http.Handler, target string, body []byte, d time.Duration) (directStats, error) {
	req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	for i := 0; i < 200; i++ {
		rec.Body.Reset()
		req.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(rec, req)
	}
	if rec.Code != http.StatusOK {
		return directStats{}, fmt.Errorf("POST %s: status %d: %s", target, rec.Code, rec.Body.String())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	began := time.Now()
	deadline := began.Add(d)
	n := 0
	for time.Now().Before(deadline) {
		for i := 0; i < 256; i++ {
			rec.Body.Reset()
			req.Body = io.NopCloser(bytes.NewReader(body))
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
