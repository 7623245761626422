package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"github.com/drafts-go/drafts/internal/backtest"
	"github.com/drafts-go/drafts/internal/baselines"
	"github.com/drafts-go/drafts/internal/cloudsim"
	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/impact"
	"github.com/drafts-go/drafts/internal/launch"
	"github.com/drafts-go/drafts/internal/migrate"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/telemetry"
)

// TestShapeClaims runs every experiment at smoke scale and asserts the
// shape claims EXPERIMENTS.md makes in prose. The sizes are the smoke
// scale's and the seeds the paper's; both are fixed in experiments.go,
// before any result is read.
func TestShapeClaims(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the backtest campaigns past the test budget")
	}
	l := newLab(smoke, 0, telemetry.NewLogger(io.Discard, "error", false))
	results := map[string]any{}
	for _, e := range experiments {
		var out bytes.Buffer
		res, err := e.run(l, &out)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if out.Len() == 0 {
			t.Errorf("%s rendered nothing", e.name)
		}
		results[e.name] = res
	}
	outs99 := results["table1"].([]backtest.ComboOutcome)
	outs95 := results["table5"].([]backtest.ComboOutcome)
	if len(outs99) != 53 || len(outs95) != 53 {
		t.Fatalf("smoke backtest covered %d and %d combos, want 53 (one per zone and archetype)", len(outs99), len(outs95))
	}
	campaigns := []struct {
		p    float64
		outs []backtest.ComboOutcome
	}{{0.99, outs99}, {0.95, outs95}}

	t.Run("table1/drafts-meets-target", func(t *testing.T) {
		for _, c := range campaigns {
			for _, o := range c.outs {
				if f := o.Fractions[baselines.MethodDrAFTS]; f < c.p {
					t.Errorf("p=%v: DrAFTS scored %.3f on %s (%s)", c.p, f, o.Combo, pricegen.ArchetypeFor(o.Combo))
				}
			}
		}
	})

	t.Run("table1/on-demand-fails-where-excursions-cross", func(t *testing.T) {
		for _, o := range outs99 {
			arch := pricegen.ArchetypeFor(o.Combo)
			below := o.Fractions[baselines.MethodOnDemand] < 0.99
			if below && arch != pricegen.Volatile && arch != pricegen.Spiky && arch != pricegen.Hostile {
				t.Errorf("On-demand bid fell below target on %s, a %s market", o.Combo, arch)
			}
			if !below && arch == pricegen.Hostile {
				t.Errorf("On-demand bid met the target on hostile %s", o.Combo)
			}
		}
	})

	t.Run("table4-5/savings", func(t *testing.T) {
		zones99, zones95 := backtest.CostByZone(outs99), backtest.CostByZone(outs95)
		for i, z := range zones99 {
			if s95 := zones95[i].SavingsPct(); zones95[i].Zone != z.Zone || s95 <= z.SavingsPct() {
				t.Errorf("%s saves %.2f%% at p=0.95 (%s), not more than %.2f%% at p=0.99",
					z.Zone, s95, zones95[i].Zone, z.SavingsPct())
			}
		}
		for _, c := range campaigns {
			zones := backtest.CostByZone(c.outs)
			west, east := meanSavings(zones, "us-west"), meanSavings(zones, "us-east")
			if west <= east {
				t.Errorf("p=%v: us-west saves %.2f%% per AZ on average, not more than us-east's %.2f%%", c.p, west, east)
			}
		}
	})

	t.Run("figure2-3/success", func(t *testing.T) {
		for _, name := range []string{"figure2", "figure3"} {
			if f := results[name].(launch.Result).SuccessFraction(); f < 0.95 {
				t.Errorf("%s: success fraction %.3f below 0.95", name, f)
			}
		}
	})

	t.Run("figure4/staircase", func(t *testing.T) {
		table := results["figure4"].(core.BidTable)
		distinct := 0
		for i, pt := range table.Points {
			if i > 0 && pt.Duration < table.Points[i-1].Duration {
				t.Errorf("guarantee drops from %v to %v as the bid rises to $%.4f", table.Points[i-1].Duration, pt.Duration, pt.Bid)
			}
			if i == 0 || pt.Duration != table.Points[i-1].Duration {
				distinct++
			}
		}
		if distinct < 2 {
			t.Errorf("%d distinct guaranteed durations over %d bids, want at least 2", distinct, len(table.Points))
		}
	})

	t.Run("table2/drafts-cheaper-no-terminations", func(t *testing.T) {
		reports := results["table2"].([]cloudsim.Report)
		orig, dr := reports[0], reports[1]
		if orig.Terminations != 0 || dr.Terminations != 0 {
			t.Errorf("terminations: %s %d, %s %d; want 0 for both", orig.Strategy, orig.Terminations, dr.Strategy, dr.Terminations)
		}
		if dr.Cost >= orig.Cost || dr.MaxBidCost >= orig.MaxBidCost {
			t.Errorf("DrAFTS cost $%.2f / max-bid $%.2f not below Original's $%.2f / $%.2f",
				dr.Cost, dr.MaxBidCost, orig.Cost, orig.MaxBidCost)
		}
	})

	t.Run("table3/drafts-cheaper-no-terminations", func(t *testing.T) {
		sums := results["table3"].([]cloudsim.Summary)
		orig := sums[0]
		for _, s := range sums[1:] {
			if s.AvgTerminations != 0 {
				t.Errorf("%s averaged %.2f terminations, want 0", s.Strategy, s.AvgTerminations)
			}
			if s.AvgCost >= orig.AvgCost || s.AvgMaxBidCost >= orig.AvgMaxBidCost {
				t.Errorf("%s cost $%.2f / risk $%.2f not below Original's $%.2f / $%.2f",
					s.Strategy, s.AvgCost, s.AvgMaxBidCost, orig.AvgCost, orig.AvgMaxBidCost)
			}
		}
	})

	t.Run("impact/durability-survives-adoption", func(t *testing.T) {
		for _, lvl := range results["impact"].([]impact.Level) {
			if lvl.Requests > 0 && lvl.SuccessFraction() < 0.95 {
				t.Errorf("%d agents: success fraction %.3f below p=0.95", lvl.Agents, lvl.SuccessFraction())
			}
		}
	})

	t.Run("hosting/sla", func(t *testing.T) {
		for _, r := range results["hosting"].([]migrate.Report) {
			if r.Availability < 0.9995 {
				t.Errorf("%s: availability %.5f below the 99.95%% SLA", r.Policy, r.Availability)
			}
		}
	})
}

// meanSavings averages SavingsPct over the zones whose names start with
// prefix.
func meanSavings(zones []backtest.ZoneCost, prefix string) float64 {
	sum, n := 0.0, 0
	for _, z := range zones {
		if strings.HasPrefix(string(z.Zone), prefix) {
			sum += z.SavingsPct()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
