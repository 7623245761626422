package drafts

import (
	"net/http/httptest"
	"testing"
	"time"
)

var t0 = time.Date(2016, 10, 1, 0, 0, 0, 0, time.UTC)

// TestPublicAPIEndToEnd walks the README workflow: synthesize a history,
// build a predictor, get a quote, optimize the tier choice.
func TestPublicAPIEndToEnd(t *testing.T) {
	combo := Combo{Zone: "us-east-1b", Type: "c4.large"}
	series, err := SyntheticHistory(combo, t0, 12000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if series.Len() != 12000 || series.Step != UpdatePeriod {
		t.Fatalf("series %d points step %v", series.Len(), series.Step)
	}

	pred, err := NewPredictor(Params{Probability: 0.95}, series.Start)
	if err != nil {
		t.Fatal(err)
	}
	pred.ObserveSeries(series)

	quote, err := pred.Advise(2 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if quote.Duration < 2*time.Hour || quote.Bid <= 0 {
		t.Errorf("quote %+v", quote)
	}

	od, err := ODPrice(combo.Type, combo.Zone.Region())
	if err != nil {
		t.Fatal(err)
	}
	choice, err := OptimizeCost(pred, od, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// A calm market quotes far below On-demand, so the strategy goes Spot.
	if !choice.UseSpot {
		t.Errorf("calm market should choose Spot: %+v", choice)
	}
	if choice.HourlyWorstCase >= od {
		t.Errorf("worst case %v not below On-demand %v", choice.HourlyWorstCase, od)
	}

	table, ok := pred.Table()
	if !ok || len(table.Points) < 10 {
		t.Fatalf("table %v, ok=%v", table, ok)
	}
}

func TestOptimizeCostFallsBackToOnDemand(t *testing.T) {
	// A hostile market (price pinned above On-demand) must push the
	// strategy to the reliable tier.
	combo := Combo{Zone: "us-east-1c", Type: "cg1.4xlarge"}
	series, err := SyntheticHistory(combo, t0, 8000, 7)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := NewPredictor(Params{Probability: 0.99}, series.Start)
	if err != nil {
		t.Fatal(err)
	}
	pred.ObserveSeries(series)
	od, _ := ODPrice(combo.Type, combo.Zone.Region())
	choice, err := OptimizeCost(pred, od, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if choice.UseSpot {
		t.Errorf("hostile market chose Spot: %+v", choice)
	}
	if choice.HourlyWorstCase != od {
		t.Errorf("worst case %v, want OD %v", choice.HourlyWorstCase, od)
	}
}

func TestOptimizeCostValidation(t *testing.T) {
	pred, _ := NewPredictor(Params{Probability: 0.95}, t0)
	if _, err := OptimizeCost(pred, 0, time.Hour); err == nil {
		t.Error("zero OD price accepted")
	}
}

func TestCatalogAndCombos(t *testing.T) {
	if len(Combos()) != 452 {
		t.Errorf("combos %d", len(Combos()))
	}
}

func TestNewSeries(t *testing.T) {
	s := NewSeries(t0)
	s.Append(0.1)
	if s.Len() != 1 || s.Step != UpdatePeriod {
		t.Errorf("series %+v", s)
	}
}

// TestServiceFromPublicAPI stands up the prediction service purely through
// the facade — store, synthetic population, server — proving the public
// surface is self-sufficient.
func TestServiceFromPublicAPI(t *testing.T) {
	store := NewHistoryStore()
	combos := []Combo{{Zone: "us-east-1b", Type: "c4.large"}}
	if err := PopulateSynthetic(store, combos, t0, 9000, 42); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServiceServer(ServiceConfig{Source: store, MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &ServiceClient{BaseURL: ts.URL}
	got, err := cl.Combos()
	if err != nil || len(got) != 1 {
		t.Fatalf("combos: %v, %v", got, err)
	}
	quote, err := cl.Advise(combos[0], 0.99, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if quote.Bid <= 0 || quote.Duration < 30*time.Minute {
		t.Errorf("quote %+v", quote)
	}
}

func TestLoadHistoryDirFacade(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := LoadHistoryDir(dir); err == nil {
		t.Error("empty dir accepted")
	}
}
