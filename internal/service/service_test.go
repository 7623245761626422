package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/spot"
)

var t0 = time.Date(2016, 10, 1, 0, 0, 0, 0, time.UTC)

var testCombos = []spot.Combo{
	{Zone: "us-east-1b", Type: "c4.large"},
	{Zone: "us-east-1c", Type: "c4.large"},
	{Zone: "us-west-1a", Type: "c3.2xlarge"},
}

func testStore(t *testing.T) *history.Store {
	t.Helper()
	st := history.NewStore()
	if err := (pricegen.Generator{Seed: 31}).Populate(st, testCombos, t0, 9000); err != nil {
		t.Fatal(err)
	}
	return st
}

func testServer(t *testing.T) *Server {
	t.Helper()
	srv, err := New(Config{Source: testStore(t), MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := New(Config{Source: history.NewStore(), RefreshEvery: -time.Minute}); err == nil {
		t.Error("negative refresh accepted")
	}
	if _, err := New(Config{Source: history.NewStore(), MaxHistory: -1}); err == nil {
		t.Error("negative max history accepted")
	}
}

func TestHealth(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
		Tables int    `json:"tables"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" {
		t.Errorf("status %q", body.Status)
	}
	// 3 combos x 2 default probability levels.
	if body.Tables != 6 {
		t.Errorf("tables = %d, want 6", body.Tables)
	}
}

func TestCombosEndpointAndClient(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}
	combos, err := cl.Combos()
	if err != nil {
		t.Fatal(err)
	}
	if len(combos) != len(testCombos) {
		t.Fatalf("%d combos, want %d", len(combos), len(testCombos))
	}
	for i := 1; i < len(combos); i++ {
		a, b := combos[i-1], combos[i]
		if a.Zone > b.Zone || (a.Zone == b.Zone && a.Type >= b.Type) {
			t.Error("combos not sorted")
		}
	}
}

func TestPredictionsEndToEnd(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}
	combo := testCombos[0]
	table, err := cl.Predictions(combo, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if table.Probability != 0.99 {
		t.Errorf("probability %v", table.Probability)
	}
	if len(table.Points) < 10 {
		t.Fatalf("table has %d points", len(table.Points))
	}
	for i := 1; i < len(table.Points); i++ {
		if table.Points[i].Bid <= table.Points[i-1].Bid {
			t.Fatal("bids not ascending after round trip")
		}
		if table.Points[i].Duration < table.Points[i-1].Duration {
			t.Fatal("durations not monotone after round trip")
		}
	}
	// The common workflow: pick a bid for a one-hour job.
	bid, err := cl.BidFor(combo, 0.99, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if mb := table.Points[0].Bid; bid < mb {
		t.Errorf("BidFor returned %v below table minimum %v", bid, mb)
	}
	// Unguaranteeable duration must error.
	if _, err := cl.BidFor(combo, 0.99, 90*24*time.Hour); err == nil {
		t.Error("impossible duration accepted")
	}
}

func TestPredictionsErrors(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{
		"/v1/predictions", // missing params
		"/v1/predictions?zone=us-east-1b&type=c4.large&probability=nope",
		"/v1/predictions?zone=us-east-1b&type=c4.large&probability=2",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s -> %d, want 400", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/predictions?zone=us-east-1b&type=x9.mega")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown combo -> %d, want 404", resp.StatusCode)
	}

	// The typed client surfaces server errors.
	cl := &Client{BaseURL: ts.URL}
	if _, err := cl.Predictions(spot.Combo{Zone: "nowhere-1a", Type: "c4.large"}, 0.99); err == nil {
		t.Error("client accepted a 404")
	}
}

func TestDefaultProbabilityIs99(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/predictions?zone=us-east-1b&type=c4.large")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tj TableJSON
	if err := json.NewDecoder(resp.Body).Decode(&tj); err != nil {
		t.Fatal(err)
	}
	if tj.Probability != 0.99 {
		t.Errorf("default probability %v", tj.Probability)
	}
}

func TestStartRefreshLoop(t *testing.T) {
	store := testStore(t)
	srv, err := New(Config{Source: store, RefreshEvery: 20 * time.Millisecond, MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := srv.Start(ctx); err != nil {
		t.Fatal(err)
	}
	ep := srv.CurrentEpoch()
	if ep == nil {
		t.Fatal("Start did not perform an initial refresh")
	}
	first := ep.AsOf()
	deadline := time.After(2 * time.Second)
	for {
		if srv.CurrentEpoch().AsOf().After(first) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("no periodic refresh within 2s")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestClientBadBaseURL(t *testing.T) {
	cl := &Client{BaseURL: "http://127.0.0.1:1"} // nothing listens here
	if _, err := cl.Combos(); err == nil {
		t.Error("unreachable server accepted")
	}
	cl2 := &Client{BaseURL: "::bad::"}
	if _, err := cl2.Combos(); err == nil {
		t.Error("malformed base URL accepted")
	}
}

func TestFromJSONRoundTrip(t *testing.T) {
	combo := spot.Combo{Zone: "us-east-1b", Type: "c4.large"}
	orig := core.BidTable{
		At:          t0,
		Probability: 0.95,
		Points: []core.BidPoint{
			{Bid: 0.1, Duration: time.Hour},
			{Bid: 0.2, Duration: 2 * time.Hour},
		},
	}
	tj := toJSON(combo, orig)
	c2, t2 := FromJSON(tj)
	if c2 != combo {
		t.Errorf("combo %v", c2)
	}
	if len(t2.Points) != 2 || t2.Points[1].Duration != 2*time.Hour || t2.Probability != 0.95 {
		t.Errorf("table %+v", t2)
	}
}
