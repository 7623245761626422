package baselines

import (
	"math"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/stats"
)

var t0 = time.Date(2016, 10, 1, 0, 0, 0, 0, time.UTC)

func genSeries(t *testing.T, c spot.Combo, n int) *history.Series {
	t.Helper()
	s, err := pricegen.Generator{Seed: 5}.Series(c, t0, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMethodsList(t *testing.T) {
	ms := Methods()
	if len(ms) != 4 || ms[0] != MethodDrAFTS || ms[1] != MethodOnDemand || ms[2] != MethodAR1 || ms[3] != MethodECDF {
		t.Errorf("Methods() = %v", ms)
	}
}

func TestOnDemandBids(t *testing.T) {
	bids := OnDemandBids(0.25, []int{1, 5, 9})
	if len(bids) != 3 {
		t.Fatalf("len = %d", len(bids))
	}
	for _, b := range bids {
		if b != 0.25 {
			t.Errorf("bid = %v", b)
		}
	}
}

func TestECDFBidsKnownQuantile(t *testing.T) {
	// Deterministic staircase series: prices 1..100 ticks.
	s := history.NewSeries(t0)
	for i := 1; i <= 100; i++ {
		s.Append(spot.FromTicks(i))
	}
	bids, err := ECDFBids(s, 0.99, 0, []int{99})
	if err != nil {
		t.Fatal(err)
	}
	if bids[0] != spot.FromTicks(100) {
		t.Errorf("0.99 quantile of 1..100 ticks + tick = %v, want %v", bids[0], spot.FromTicks(100))
	}
	// Window limiting: only the last 10 points.
	bids, err = ECDFBids(s, 0.5, 10, []int{99})
	if err != nil {
		t.Fatal(err)
	}
	if bids[0] != spot.FromTicks(96) {
		t.Errorf("median of last 10 + tick = %v, want %v", bids[0], spot.FromTicks(96))
	}
}

func TestECDFBidsErrors(t *testing.T) {
	s := genSeries(t, spot.Combo{Zone: "us-east-1b", Type: "c4.large"}, 100)
	if _, err := ECDFBids(s, 0, 0, []int{5}); err == nil {
		t.Error("quantile 0 accepted")
	}
	if _, err := ECDFBids(s, 0.5, 0, []int{500}); err == nil {
		t.Error("out-of-range query accepted")
	}
	if _, err := ECDFBids(s, 0.5, 0, []int{5, 5}); err == nil {
		t.Error("non-ascending queries accepted")
	}
	if _, err := ECDFBids(nil, 0.5, 0, []int{0}); err == nil {
		t.Error("nil series accepted")
	}
	// A price between ticks breaks the tick-grid invariant the sliding
	// window reads quantiles back through.
	off := s.Clone()
	off.Prices[40] += spot.PriceTick / 3
	if _, err := ECDFBids(off, 0.5, 0, []int{60}); err == nil {
		t.Error("off-grid price accepted")
	}
	if _, err := ECDFBids(off, 0.5, 10, []int{30, 99}); err != nil {
		t.Errorf("off-grid price outside every window rejected: %v", err)
	}
}

// TestECDFBidsMatchesKthSmallest checks the sliding Fenwick window against
// the direct order statistic of each query's window, bit for bit, with an
// unlimited history and with windows both shorter and longer than the gaps
// between queries.
func TestECDFBidsMatchesKthSmallest(t *testing.T) {
	const n = 6000
	rng := stats.NewRNG(9)
	var queries []int
	for q := 200; q < n; {
		queries = append(queries, q)
		switch r := rng.Intn(10); {
		case r < 5:
			q++ // consecutive moments
		case r < 9:
			q += 1 + rng.Intn(60)
		default:
			q += 1 + rng.Intn(1500) // a jump past short windows
		}
	}
	for _, c := range []spot.Combo{
		{Zone: "us-east-1b", Type: "c4.large"},
		{Zone: "us-west-1a", Type: "c3.2xlarge"},
		{Zone: "us-east-1e", Type: "c4.4xlarge"},
	} {
		s := genSeries(t, c, n)
		for _, maxHistory := range []int{0, 288, 1440} {
			for _, quantile := range []float64{0.5, 0.95, 0.99} {
				bids, err := ECDFBids(s, quantile, maxHistory, queries)
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range queries {
					w := window(s.Prices, q, maxHistory)
					k := min(max(int(math.Ceil(quantile*float64(len(w)))), 1), len(w))
					want := spot.NextTickAbove(stats.KthSmallest(w, k))
					if math.Float64bits(bids[qi]) != math.Float64bits(want) {
						t.Fatalf("%v maxHistory=%d q=%v at %d: bid %v, want %v",
							c, maxHistory, quantile, q, bids[qi], want)
					}
				}
			}
		}
	}
}

func TestAR1BidsOnGaussianAR1(t *testing.T) {
	// On a true AR(1) series, the bid should approximate the stationary
	// 0.975 quantile.
	rng := stats.NewRNG(3)
	s := history.NewSeries(t0)
	const (
		mu    = 0.30
		phi   = 0.8
		sigma = 0.01
	)
	x := mu
	for i := 0; i < 8000; i++ {
		x = mu + phi*(x-mu) + rng.Normal(0, sigma)
		if x < 0.01 {
			x = 0.01
		}
		s.Append(spot.RoundToTick(x))
	}
	bids, err := AR1Bids(s, 0.975, 0.99, 0, []int{7999})
	if err != nil {
		t.Fatal(err)
	}
	want := mu + 1.959963984540054*sigma/math.Sqrt(1-phi*phi)
	if math.Abs(bids[0]-want) > 0.005 {
		t.Errorf("AR(1) bid = %v, want ~%v", bids[0], want)
	}
}

func TestAR1BidsAdaptAfterRegimeShift(t *testing.T) {
	// Prices jump 5x at midpoint; with change-point segmentation (and the
	// post-shift stretch longer than the minimum fit span) the bid at the
	// end must reflect the new regime, not the mixture.
	rng := stats.NewRNG(4)
	s := history.NewSeries(t0)
	for i := 0; i < 10000; i++ {
		s.Append(spot.RoundToTick(0.10 + 0.005*rng.Float64()))
	}
	for i := 0; i < 10000; i++ {
		s.Append(spot.RoundToTick(0.50 + 0.025*rng.Float64()))
	}
	bids, err := AR1Bids(s, 0.975, 0.99, 0, []int{19999})
	if err != nil {
		t.Fatal(err)
	}
	if bids[0] < 0.45 || bids[0] > 0.60 {
		t.Errorf("post-shift AR(1) bid = %v, want near the 0.50 regime", bids[0])
	}
}

func TestAR1BidsConstantSeriesFallback(t *testing.T) {
	s := history.NewSeries(t0)
	for i := 0; i < 1000; i++ {
		s.Append(0.2)
	}
	bids, err := AR1Bids(s, 0.975, 0.99, 0, []int{999})
	if err != nil {
		t.Fatal(err)
	}
	if bids[0] != 0.2001 {
		t.Errorf("constant-series bid = %v, want one tick above 0.2", bids[0])
	}
}

func TestAR1BidsErrors(t *testing.T) {
	s := genSeries(t, spot.Combo{Zone: "us-east-1b", Type: "c4.large"}, 100)
	if _, err := AR1Bids(s, 1.5, 0.99, 0, []int{5}); err == nil {
		t.Error("bad quantile accepted")
	}
	if _, err := AR1Bids(s, 0.975, 0.99, 0, []int{-1}); err == nil {
		t.Error("negative query accepted")
	}
}

// TestAR1UnderestimatesSpikyTails documents the failure mode Table 1
// exposes: on a spiky series, the Gaussian AR(1) quantile sits far below
// the actual extremes, so bids get overrun.
func TestAR1UnderestimatesSpikyTails(t *testing.T) {
	c := spot.Combo{Zone: "us-east-1e", Type: "c4.4xlarge"} // spiky archetype
	s := genSeries(t, c, 12000)
	bids, err := AR1Bids(s, 0.99499, 0.99, 0, []int{11999})
	if err != nil {
		t.Fatal(err)
	}
	max := stats.Describe(s.Prices).Max
	if bids[0] >= max {
		t.Skipf("series realization not spiky enough to demonstrate (bid %v, max %v)", bids[0], max)
	}
	// The point: the AR(1) bid is below the observed maximum, so a
	// 12-hour instance spanning a spike would have died.
	if bids[0] >= max {
		t.Errorf("expected AR(1) bid %v below series max %v", bids[0], max)
	}
}
