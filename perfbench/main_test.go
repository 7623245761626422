package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// listed are the workload metrics every run must list by name, beside
// the end-to-end slots of the JSON line.
var listed = map[string][]string{
	"serve":    {"setup_s", "read_p50_us", "fleet_p50_us", "fleet_wide_p50_us", "max_rps", "live_heap_mb", "loadgen.late_p50_us"},
	"ingest":   {"setup_s", "fresh_ms", "cycle_ms", "read_p50_us", "restart_ms", "live_heap_mb", "loadgen.late_p50_us"},
	"backtest": {"setup_s", "table1_s", "table1_p95_pass_s", "live_heap_mb"},
}

// TestTinyRunsEmitEveryMetric runs each workload at tiny scale, untraced
// and traced, and checks that every named metric comes out with its unit
// and that the correctness checks pass.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, w := range []string{"serve", "ingest", "backtest"} {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: 3, window: 2 * time.Second, traced: traced, workDir: t.TempDir()}
			res, err := runWorkload(context.Background(), o, tinyScale)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if len(res.checkFailures) > 0 || res.failed > 0 {
				t.Fatalf("%s traced=%v: checks failed %v (failed ops %d)", w, traced, res.checkFailures, res.failed)
			}
			rep, err := res.report(traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			want := e2eUnits
			if traced {
				want = layerUnits()
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(rep.Metrics), len(want))
			}
			for name, unit := range want {
				if m := rep.Metrics[name]; m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w, traced, name, m.Unit, unit)
				}
			}
			got := map[string]named{}
			for _, n := range res.listing {
				got[n.name] = n
			}
			for _, name := range listed[w] {
				n, ok := got[name]
				if !ok || n.unit == "" || n.n < 1 {
					t.Errorf("%s traced=%v: listing lacks %s with unit and sample count (%+v)", w, traced, name, n)
				}
			}
			for _, n := range res.listing {
				if strings.HasSuffix(n.name, "_p99_us") && !tailOK(n.n, 0.99) {
					t.Errorf("%s: %s reported over only %d samples", w, n.name, n.n)
				}
			}
		}
	}
}

// corrupting flips one byte of every 200 body, as a broken cache or
// encoder would.
type corrupting struct{ next http.Handler }

type flipWriter struct {
	http.ResponseWriter
	status int
}

func (f *flipWriter) WriteHeader(s int) {
	f.status = s
	f.ResponseWriter.WriteHeader(s)
}

func (f *flipWriter) Write(b []byte) (int, error) {
	if f.status == http.StatusOK && len(b) > 20 {
		c := append([]byte(nil), b...)
		c[len(c)/2] ^= 1
		return f.ResponseWriter.Write(c)
	}
	return f.ResponseWriter.Write(b)
}

func (c corrupting) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.next.ServeHTTP(&flipWriter{ResponseWriter: w}, r)
}

// TestServeCheckCatchesCorruptBody serves the serve mix through a handler
// that corrupts bodies and expects the correctness check to fail, while
// the same mix against the intact handler passes.
func TestServeCheckCatchesCorruptBody(t *testing.T) {
	env, err := setupServe(5, serveSizes[tinyScale])
	if err != nil {
		t.Fatal(err)
	}
	defer env.stop()
	base, stop, err := loopback(corrupting{env.srv.Handler()})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	specs := serveSpecs(env, 5, 200)
	client := newClient(2)
	defer client.CloseIdleConnections()

	intact := openLoop(context.Background(), client, specs, 400, 500*time.Millisecond, 2, nanosleep, serveCheck)
	if intact.counts.failed != 0 || len(intact.wrong) != 0 {
		t.Fatalf("intact server failed checks: %v %v", intact.errs, intact.wrong)
	}
	for i := range specs {
		specs[i].url = strings.Replace(specs[i].url, env.base, base, 1)
	}
	bad := openLoop(context.Background(), client, specs, 400, 500*time.Millisecond, 2, nanosleep, serveCheck)
	if len(bad.wrong) == 0 {
		t.Fatal("corrupted bodies passed the serve correctness check")
	}
	if !bytes.Contains([]byte(strings.Join(bad.wrong, "\n")), []byte("predictions body differs")) {
		t.Errorf("no predictions mismatch among %v", bad.wrong)
	}
}

// TestBenchmarkJSONMatchesProgram holds BENCHMARK.json and the program to
// the same metric names and units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want map[string]string
	}{{spec.EndToEnd, e2eUnits}, {spec.PerLayer, layerUnits()}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, program reports %d", len(c.got), len(c.want))
		}
		for _, m := range c.got {
			if c.want[m.Name] != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, c.want[m.Name])
			}
		}
	}
}
