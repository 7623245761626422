package billing

import (
	"math"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/spot"
)

var t0 = time.Date(2016, 10, 1, 0, 0, 0, 0, time.UTC)

func flatSeries(n int, price float64) *history.Series {
	s := history.NewSeries(t0)
	for i := 0; i < n; i++ {
		s.Append(price)
	}
	return s
}

func TestChargeableHours(t *testing.T) {
	cases := []struct {
		d      time.Duration
		reason Reason
		want   int
	}{
		{0, UserTerminated, 0},
		{-time.Hour, UserTerminated, 0},
		{time.Minute, UserTerminated, 1},
		{55 * time.Minute, UserTerminated, 1},
		{time.Hour, UserTerminated, 1},
		{61 * time.Minute, UserTerminated, 2},
		{3*time.Hour + time.Second, UserTerminated, 4},
		{55 * time.Minute, ProviderTerminated, 0},
		{time.Hour, ProviderTerminated, 1},
		{179 * time.Minute, ProviderTerminated, 2},
	}
	for _, c := range cases {
		if got := ChargeableHours(c.d, c.reason); got != c.want {
			t.Errorf("ChargeableHours(%v, %v) = %d, want %d", c.d, c.reason, got, c.want)
		}
	}
}

// TestPaperRollOverScenario reproduces §4.2's motivation for 3300-second
// instances: a run of "close to an hour" whose termination is recorded up
// to 5 minutes late can roll over the hour mark and be charged two hours.
func TestPaperRollOverScenario(t *testing.T) {
	if got := ChargeableHours(3300*time.Second+5*time.Minute, UserTerminated); got != 1 {
		t.Errorf("3300s + 5min lag = %d hours, want 1", got)
	}
	if got := ChargeableHours(59*time.Minute+5*time.Minute, UserTerminated); got != 2 {
		t.Errorf("59min + 5min lag = %d hours, want 2 (the roll-over)", got)
	}
}

func TestCostHourlyPricing(t *testing.T) {
	// Price 0.10 for the first hour, 0.30 afterwards.
	s := history.NewSeries(t0)
	for i := 0; i < 12; i++ { // one hour of 5-min points
		s.Append(0.10)
	}
	for i := 0; i < 48; i++ { // four more hours
		s.Append(0.30)
	}
	// 2.5 hours, user terminated: hours at t0 (0.10), t0+1h (0.30),
	// t0+2h (0.30) = 0.70.
	got, err := Cost(s, t0, t0.Add(150*time.Minute), UserTerminated)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.70) > 1e-12 {
		t.Errorf("cost = %v, want 0.70", got)
	}
	// Same run, provider terminated: the partial third hour is free.
	got, err = Cost(s, t0, t0.Add(150*time.Minute), ProviderTerminated)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.40) > 1e-12 {
		t.Errorf("provider-terminated cost = %v, want 0.40", got)
	}
}

func TestCostChargesHourStartPrice(t *testing.T) {
	// The mid-hour price change must not affect the charge: only the
	// hour-start price matters.
	s := history.NewSeries(t0)
	s.Append(0.10)
	for i := 0; i < 23; i++ {
		s.Append(5.00)
	}
	got, err := Cost(s, t0, t0.Add(30*time.Minute), UserTerminated)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.10 {
		t.Errorf("cost = %v, want 0.10 (hour-start price)", got)
	}
}

func TestCostErrors(t *testing.T) {
	s := flatSeries(12, 0.1)
	if _, err := Cost(s, t0.Add(time.Hour), t0, UserTerminated); err == nil {
		t.Error("end before start accepted")
	}
	// Run extends beyond the series.
	if _, err := Cost(s, t0, t0.Add(3*time.Hour), UserTerminated); err == nil {
		t.Error("missing price data accepted")
	}
}

func TestCostZeroDuration(t *testing.T) {
	s := flatSeries(12, 0.1)
	got, err := Cost(s, t0, t0, UserTerminated)
	if err != nil || got != 0 {
		t.Errorf("zero-duration cost = %v, %v", got, err)
	}
}

func TestRisk(t *testing.T) {
	if got := Risk(0.25, t0, t0.Add(90*time.Minute), UserTerminated); got != 0.5 {
		t.Errorf("risk = %v, want 0.5", got)
	}
	if got := Risk(0.25, t0, t0.Add(90*time.Minute), ProviderTerminated); got != 0.25 {
		t.Errorf("provider risk = %v, want 0.25", got)
	}
}

func TestRiskAtLeastCost(t *testing.T) {
	// With the bid above the market price throughout (the survival
	// condition), risk must bound cost.
	s := flatSeries(100, 0.2)
	bid := 0.35
	for _, d := range []time.Duration{10 * time.Minute, time.Hour, 5 * time.Hour} {
		cost, err := Cost(s, t0, t0.Add(d), UserTerminated)
		if err != nil {
			t.Fatal(err)
		}
		if r := Risk(bid, t0, t0.Add(d), UserTerminated); r < cost {
			t.Errorf("d=%v: risk %v below cost %v", d, r, cost)
		}
	}
}

func TestOnDemandCost(t *testing.T) {
	od, _ := spot.ODPrice("c4.large", spot.USEast1)
	if got := OnDemandCost(od, 150*time.Minute); math.Abs(got-3*od) > 1e-12 {
		t.Errorf("OD cost = %v, want %v", got, 3*od)
	}
}
