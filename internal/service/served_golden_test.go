package service_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/cluster"
	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/service"
	"github.com/drafts-go/drafts/internal/spot"
)

var updateServed = flag.Bool("update", false, "rewrite testdata/served_bytes.golden from this run")

const servedGolden = "testdata/served_bytes.golden"

// servedDigest is one line of the golden file: the SHA-256 of what one
// endpoint served for one combo ("*" for catalog-wide reads) at one step
// of the scenario, or of a snapshot payload.
type servedDigest struct {
	step, endpoint, combo, sum string
}

func (d servedDigest) String() string {
	return d.step + "\t" + d.endpoint + "\t" + d.combo + "\t" + d.sum
}

// servedRecorder collects digests in scenario order.
type servedRecorder struct {
	combos []spot.Combo
	got    []servedDigest
}

func (r *servedRecorder) add(step, endpoint, combo string, parts ...[]byte) {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	r.got = append(r.got, servedDigest{step, endpoint, combo, hex.EncodeToString(h.Sum(nil))})
}

// serve records one request's status, ETag and body. Every request
// carries a fixed X-Request-Id, so error envelopes are reproducible.
func (r *servedRecorder) serve(step, endpoint, combo string, h http.Handler, method, target, body string) {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	req.Header.Set("X-Request-Id", "served-golden")
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	r.add(step, endpoint, combo, []byte(fmt.Sprint(rec.Code)), []byte(rec.Header().Get("Etag")), rec.Body.Bytes())
}

// node records every read a node serves: per combo and probability its
// table and four advise durations (the longest a refusal), and per
// probability the catalog's batched tables and two fleet rankings, and
// the combo list.
func (r *servedRecorder) node(step string, h http.Handler) {
	r.serve(step, "combos", "*", h, http.MethodGet, "/v1/combos", "")
	names := make([]string, len(r.combos))
	for i, c := range r.combos {
		names[i] = string(c.Zone) + "/" + string(c.Type)
	}
	for _, p := range []string{"0.95", "0.99"} {
		for i, c := range r.combos {
			q := fmt.Sprintf("zone=%s&type=%s&probability=%s", c.Zone, c.Type, p)
			r.serve(step, "predictions p="+p, names[i], h, http.MethodGet, "/v1/predictions?"+q, "")
			for _, d := range []string{"30m", "6h", "48h", "2000h"} {
				r.serve(step, "advise p="+p+" d="+d, names[i], h, http.MethodGet, "/v1/advise?"+q+"&duration="+d, "")
			}
		}
		r.serve(step, "tables p="+p, "*", h, http.MethodGet,
			"/v1/tables?combos="+strings.Join(names, ",")+"&probability="+p, "")
		for _, d := range []string{"1h", "12h"} {
			r.serve(step, "fleet p="+p+" d="+d, "*", h, http.MethodPost, "/v1/fleet",
				fmt.Sprintf(`{"duration":%q,"probability":%s,"count":100}`, d, p))
		}
	}
}

// snapshot records the writer's snapshot payload.
func (r *servedRecorder) snapshot(t *testing.T, step string, srv *service.Server) []byte {
	t.Helper()
	payload, err := srv.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	r.add(step, "snapshot", "*", payload)
	return payload
}

// TestServedBytesGolden pins every byte the service serves over a seeded
// scenario: 12 pricegen combos × 90 days, a cold refresh, incremental
// refreshes of 3, 1,100 (across a window chunk) and 26,000 (more than a
// window) ticks, a snapshot restore that then refreshes on its own, and a
// replica fed from the writer's ship stream. Some announced ticks are
// prices a predictor drops (NaN, 0, negative) or that lie off the tick
// grid. It compares a SHA-256 per (step, endpoint, combo) and per
// snapshot payload with testdata/served_bytes.golden and names the first
// that differs. A change that alters served bytes on purpose regenerates
// the file with -update and says why.
func TestServedBytesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("seeded 90-day scenario")
	}
	all := spot.Combos()
	var combos []spot.Combo
	for i := 0; i < len(all) && len(combos) < 12; i += 37 {
		combos = append(combos, all[i])
	}
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	gen := pricegen.Generator{Seed: 17}
	hist := history.NewStore()
	if err := gen.Populate(hist, combos, start, core.DefaultMaxHistory+500); err != nil {
		t.Fatal(err)
	}
	// Each refresh is stamped at hour step; every announce starts the next.
	step := 1
	clock := func() time.Time { return start.Add(time.Duration(step) * time.Hour) }
	// announce appends k ticks per combo; defects plants prices a
	// predictor drops or that lie off the grid, by combo and offset.
	announce := func(k int, defects map[[2]int]float64) {
		t.Helper()
		step++
		for ci, c := range combos {
			cur, _ := hist.Full(c)
			ext, err := gen.Continue(c, start, cur.Len(), k)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range ext.Prices {
				if d, ok := defects[[2]int{ci, i}]; ok {
					v = d
				}
				hist.Append(c, start, v)
			}
		}
	}
	rec := &servedRecorder{combos: combos}

	sh := cluster.NewShipper(cluster.ShipperConfig{})
	writer, err := service.New(service.Config{Source: hist, RefreshWorkers: 2, OnEpoch: sh.Publish})
	if err != nil {
		t.Fatal(err)
	}
	service.SetClock(writer, clock)
	ts := httptest.NewServer(sh.ShipHandler())
	defer ts.Close()
	replica, err := service.NewReplica(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cluster.NewReceiver(cluster.ReceiverConfig{
		Writer: ts.URL, Server: replica, Now: func() time.Time { return start }, HTTPClient: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); rc.Run(ctx) }()
	defer func() { cancel(); <-done }()
	synced := func(name string) {
		t.Helper()
		want := writer.CurrentEpoch().Seq()
		deadline := time.Now().Add(30 * time.Second)
		for ep := replica.CurrentEpoch(); ep == nil || ep.Seq() != want; ep = replica.CurrentEpoch() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: replica did not reach epoch %d: %+v", name, want, rc.Status())
			}
			time.Sleep(5 * time.Millisecond)
		}
		rec.node(name, replica.Handler())
	}
	refresh := func(name string, srv *service.Server) {
		t.Helper()
		if err := srv.Refresh(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec.node(name, srv.Handler())
	}

	refresh("cold", writer)
	rec.snapshot(t, "cold", writer)
	synced("replica-cold")

	announce(3, map[[2]int]float64{{0, 1}: math.NaN(), {5, 2}: 0.12345678})
	refresh("incr-3", writer)
	synced("replica-incr-3")

	announce(1100, map[[2]int]float64{{1, 0}: 0, {2, 600}: -1, {7, 1099}: math.Inf(1), {9, 40}: 1e-9})
	refresh("incr-1100", writer)
	payload := rec.snapshot(t, "incr-1100", writer)

	restored, err := service.New(service.Config{Source: hist, RefreshWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	service.SetClock(restored, clock)
	if err := restored.RestoreSnapshot(payload); err != nil {
		t.Fatal(err)
	}
	rec.node("restore", restored.Handler())
	announce(7, map[[2]int]float64{{3, 3}: math.NaN()})
	refresh("restore-incr-7", restored)
	rec.snapshot(t, "restore-incr-7", restored)

	refresh("incr-7", writer)
	announce(core.DefaultMaxHistory+80, map[[2]int]float64{{4, 10}: 0, {4, 26000}: 0.33333333})
	refresh("incr-window", writer)
	rec.snapshot(t, "incr-window", writer)
	synced("replica-incr-window")

	if *updateServed {
		var b bytes.Buffer
		for _, d := range rec.got {
			b.WriteString(d.String() + "\n")
		}
		if err := os.MkdirAll(filepath.Dir(servedGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(servedGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(rec.got), servedGolden)
		return
	}
	f, err := os.Open(servedGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []servedDigest
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		parts := strings.Split(sc.Text(), "\t")
		if len(parts) != 4 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want = append(want, servedDigest{parts[0], parts[1], parts[2], parts[3]})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range min(len(want), len(rec.got)) {
		if g, w := rec.got[i], want[i]; g != w {
			t.Fatalf("first difference at line %d: step %q, endpoint %q, combo %q: got\n\t%v\nwant\n\t%v",
				i+1, w.step, w.endpoint, w.combo, g, w)
		}
	}
	if len(rec.got) != len(want) {
		t.Fatalf("%d digests, golden has %d", len(rec.got), len(want))
	}
}
