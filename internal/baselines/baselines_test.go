package baselines

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/qbets"
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
	off := &history.Series{Start: s.Start, Step: s.Step, Prices: slices.Clone(s.Prices)}
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
					sorted := append([]float64(nil), w...)
					sort.Float64s(sorted)
					want := spot.NextTickAbove(sorted[k-1])
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

func TestAR1BidsTickGridAndOverflow(t *testing.T) {
	s := genSeries(t, spot.Combo{Zone: "us-east-1b", Type: "c4.large"}, 100)
	off := &history.Series{Start: s.Start, Step: s.Step, Prices: slices.Clone(s.Prices)}
	off.Prices[40] += spot.PriceTick / 3
	if _, err := AR1Bids(off, 0.975, 0.99, 0, []int{60}); err == nil || !strings.Contains(err.Error(), "tick grid") {
		t.Errorf("off-grid price: err = %v, want a tick-grid error", err)
	}
	// n·maxTick² < 2⁶² bounds the int64 tick sums: 2²⁸ ticks squared
	// leave room for 63 points, not 64, and 2³¹ ticks for none; 2³² ticks
	// squared overflow 64 bits themselves.
	for _, c := range []struct {
		ticks, n int
		ok       bool
	}{{1 << 28, 63, true}, {1 << 28, 64, false}, {1 << 31, 1, false}, {1 << 32, 1, false}} {
		big := history.NewSeries(t0)
		for i := 0; i < c.n; i++ {
			big.Append(spot.FromTicks(c.ticks))
		}
		_, err := AR1Bids(big, 0.975, 0.99, 0, []int{c.n - 1})
		if c.ok && err != nil {
			t.Errorf("%d points of %d ticks: %v", c.n, c.ticks, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "overflow")) {
			t.Errorf("%d points of %d ticks: err = %v, want an overflow error", c.n, c.ticks, err)
		}
	}
}

func TestAR1BidsNoQueries(t *testing.T) {
	s := genSeries(t, spot.Combo{Zone: "us-east-1b", Type: "c4.large"}, 100)
	if bids, err := AR1Bids(s, 0.975, 0.99, 0, nil); err != nil || len(bids) != 0 {
		t.Errorf("no queries: bids %v, err %v; want none", bids, err)
	}
}

// TestTickPrefixMoments checks every window's moments read off the
// prefix sums against direct sums over its ticks, on a series that mixes
// runs, one-tick steps and prices at the top of the catalog's range.
func TestTickPrefixMoments(t *testing.T) {
	rng := stats.NewRNG(31)
	ticks := make([]int64, 60)
	for i := range ticks {
		switch {
		case i > 0 && rng.Intn(3) == 0:
			ticks[i] = ticks[i-1]
		case rng.Intn(2) == 0:
			ticks[i] = 662400 - int64(rng.Intn(3))
		default:
			ticks[i] = int64(1 + rng.Intn(5000))
		}
	}
	p := make(tickPrefix, 1)
	for _, tk := range ticks {
		p.push(tk)
	}
	for lo := 0; lo < len(ticks); lo++ {
		for hi := lo + 1; hi <= len(ticks); hi++ {
			w := ticks[lo:hi]
			want := stats.Moments{N: int64(len(w)), First: w[0], Last: w[len(w)-1]}
			for j, tk := range w {
				want.Sum += tk
				want.SumSq += tk * tk
				if j > 0 {
					want.LagSum += w[j-1] * tk
				}
			}
			if got := p.moments(lo, hi); got != want {
				t.Fatalf("[%d, %d): moments %+v, want %+v", lo, hi, got, want)
			}
		}
	}
}

// welfordAR1Bids is AR1Bids as it fitted each window before the tick
// prefix sums: a Welford pass for the mean and variance and
// stats.Autocorrelation for phi, over the window's float prices.
func welfordAR1Bids(s *history.Series, quantile, confidence float64, maxHistory int, queries []int) ([]float64, error) {
	seg, err := qbets.New(qbets.Config{
		Kind:       qbets.UpperBound,
		Quantile:   quantile,
		Confidence: confidence,
		MaxHistory: maxHistory,
		NewStore:   func() qbets.OrderStats { return qbets.NewLevelStore(spot.PriceTick) },
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(queries))
	next := 0
	for i, price := range s.Prices {
		seg.Observe(price)
		if next == len(queries) || queries[next] != i {
			continue
		}
		w := window(s.Prices, i, maxHistory)
		if segLen := max(seg.Len(), minAR1Segment); segLen < len(w) {
			w = w[len(w)-segLen:]
		}
		sum := stats.Describe(w)
		phi := min(max(stats.Autocorrelation(w, 1), -0.999), 0.999)
		sigma := math.Sqrt(max(sum.Variance*(1-phi*phi), 0))
		bid := stats.AR1{Mu: sum.Mean, Phi: phi, Sigma: sigma}.StationaryQuantile(quantile)
		if math.IsNaN(bid) || bid < spot.PriceTick {
			bid = sum.Max
		}
		out[next] = spot.NextTickAbove(spot.RoundToTick(bid))
		next++
	}
	return out, nil
}

// TestAR1BidsMatchWelfordAtSmokeScale runs the smoke-scale Table 1
// population (the first combo of every zone and archetype, 53 combos, 90
// days of lead and a 61-day request window at seed 42) with 60 requests
// per combo, and requires every AR(1) bid at both published probabilities
// to equal the Welford fit's bit for bit. Under the race detector, which
// finds nothing in this single-goroutine arithmetic, it checks every 8th
// combo.
func TestAR1BidsMatchWelfordAtSmokeScale(t *testing.T) {
	const (
		lead   = 90 * 24 * 12
		window = 61 * 24 * 12
	)
	type key struct {
		zone spot.Zone
		arch pricegen.Archetype
	}
	seen := map[key]bool{}
	var combos []spot.Combo
	for _, c := range spot.Combos() {
		if k := (key{c.Zone, pricegen.ArchetypeFor(c)}); !seen[k] {
			seen[k] = true
			combos = append(combos, c)
		}
	}
	if len(combos) != 53 {
		t.Fatalf("smoke population has %d combos, want 53", len(combos))
	}
	step := 1
	if raceEnabled {
		step = 8
	}
	gen := pricegen.Generator{Seed: 42}
	rng := stats.NewRNG(42)
	bids := 0
	for ci := 0; ci < len(combos); ci += step {
		c := combos[ci]
		s, err := gen.Series(c, t0, lead+window+12*12+2)
		if err != nil {
			t.Fatal(err)
		}
		qset := map[int]bool{}
		for len(qset) < 60 {
			qset[lead+rng.Intn(window)] = true
		}
		queries := make([]int, 0, len(qset))
		for q := range qset {
			queries = append(queries, q)
		}
		sort.Ints(queries)
		for _, p := range []float64{0.99, 0.95} {
			got, err := AR1Bids(s, p, 0.99, core.DefaultMaxHistory, queries)
			if err != nil {
				t.Fatal(err)
			}
			want, err := welfordAR1Bids(s, p, 0.99, core.DefaultMaxHistory, queries)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("%v p=%v at %d: bid %v, Welford %v", c, p, q, got[i], want[i])
				}
			}
			bids += len(queries)
		}
	}
	t.Logf("%d AR(1) bids equal", bids)
}

// BenchmarkAR1Bids times one combo's AR(1) bids at the backtest
// workload's shape: 90 days of lead, a 61-day window plus 12 hours, and
// 300 requests spread over the window, at p=0.99.
func BenchmarkAR1Bids(b *testing.B) {
	const (
		lead     = 90 * 24 * 12
		requests = 300
	)
	s, err := pricegen.Generator{Seed: 1}.Series(spot.Combos()[0], t0, lead+61*24*12+12*12+2)
	if err != nil {
		b.Fatal(err)
	}
	hi := s.Len() - core.StepsFor(12*time.Hour, s.Step) - 1
	queries := make([]int, requests)
	for i := range queries {
		queries[i] = lead + i*(hi-lead)/requests
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AR1Bids(s, 0.99, 0.99, core.DefaultMaxHistory, queries); err != nil {
			b.Fatal(err)
		}
	}
}
