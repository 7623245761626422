package stats

import (
	"math"
	"testing"

	"github.com/drafts-go/drafts/internal/spot"
)

// FitAR1 is the Welford-pass Yule-Walker fit over float observations that
// Moments.FitAR1 replaced in production: the test oracle for the exact
// integer-moment fit.
func FitAR1(xs []float64) (AR1, bool) {
	if len(xs) < 3 {
		return AR1{}, false
	}
	s := Describe(xs)
	phi := Autocorrelation(xs, 1)
	if math.IsNaN(phi) {
		return AR1{}, false
	}
	// Clamp away from the unit root so the stationary variance exists.
	const maxPhi = 0.999
	if phi > maxPhi {
		phi = maxPhi
	}
	if phi < -maxPhi {
		phi = -maxPhi
	}
	sigma2 := s.Variance * (1 - phi*phi)
	if sigma2 < 0 {
		sigma2 = 0
	}
	return AR1{Mu: s.Mean, Phi: phi, Sigma: math.Sqrt(sigma2)}, true
}

// momentsOf sums a tick window directly.
func momentsOf(ticks []int64) Moments {
	m := Moments{N: int64(len(ticks)), First: ticks[0], Last: ticks[len(ticks)-1]}
	for i, t := range ticks {
		m.Sum += t
		m.SumSq += t * t
		if i > 0 {
			m.LagSum += ticks[i-1] * t
		}
	}
	return m
}

// maxCatalogTick is the largest catalog price, $66.24, in ticks.
const maxCatalogTick = 662400

// TestFitAR1MomentsMatchesWelford checks the exact-moment fit against the
// Welford oracle on random tick series: constant windows, two-level
// windows, windows of three points and ticks at the top of the catalog's
// price range. The fitted parameters agree to a relative 1e-9 and the
// AR(1) baseline's bid (the quantile snapped to the tick grid, plus one
// tick, or the window maximum when the quantile is degenerate) is the
// same float.
func TestFitAR1MomentsMatchesWelford(t *testing.T) {
	rng := NewRNG(23)
	for trial := 0; trial < 3000; trial++ {
		n := 3 + rng.Intn(8)
		if trial%3 == 0 {
			n = 3 + rng.Intn(3000)
		}
		ticks := make([]int64, n)
		base := int64(1 + rng.Intn(maxCatalogTick))
		if trial%5 == 0 {
			base = maxCatalogTick - int64(rng.Intn(50))
		}
		switch trial % 4 {
		case 0: // constant
			for i := range ticks {
				ticks[i] = base
			}
		case 1: // two levels, one tick or far apart
			other := base - 1
			if rng.Intn(2) == 0 {
				other = int64(1 + rng.Intn(maxCatalogTick))
			}
			for i := range ticks {
				ticks[i] = base
				if rng.Intn(3) == 0 {
					ticks[i] = other
				}
			}
		case 2: // a walk of small steps around base
			x := base
			for i := range ticks {
				x += int64(rng.Intn(7)) - 3
				x = min(max(x, 1), maxCatalogTick)
				ticks[i] = x
			}
		default: // uniform over the catalog's range
			for i := range ticks {
				ticks[i] = int64(1 + rng.Intn(maxCatalogTick))
			}
		}
		prices := make([]float64, n)
		for i, tk := range ticks {
			prices[i] = spot.FromTicks(int(tk))
		}
		want, ok := FitAR1(prices)
		got, gotOK := momentsOf(ticks).FitAR1(spot.PriceTick)
		if !ok || !gotOK {
			t.Fatalf("trial %d: fit failed (oracle %v, moments %v)", trial, ok, gotOK)
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{{"Mu", got.Mu, want.Mu}, {"Sigma", got.Sigma, want.Sigma}} {
			if d := math.Abs(f.got - f.want); d > 1e-9*math.Max(math.Abs(f.want), math.Abs(f.got)) {
				t.Fatalf("trial %d (n=%d): %s = %v, oracle %v", trial, n, f.name, f.got, f.want)
			}
		}
		// Phi is a correlation, so it is compared on the scale of its
		// range [-1, 1]: near 0 the oracle's own error dominates, since
		// each float price carries a representation error of ~1e-10 of a
		// one-tick deviation at the top of the range. A constant window's
		// autocorrelation is 0/0: the exact fit reads 0 where the oracle's
		// float mean leaves noise deviations and a noise phi; Sigma is 0
		// either way, so the bid does not depend on it.
		if d := math.Abs(got.Phi - want.Phi); d > 1e-9 && got.Sigma != 0 {
			t.Fatalf("trial %d (n=%d): Phi = %v, oracle %v", trial, n, got.Phi, want.Phi)
		}
		maxPrice := Describe(prices).Max
		for _, q := range []float64{0.95, 0.99} {
			if g, w := ar1Bid(got, q, maxPrice), ar1Bid(want, q, maxPrice); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("trial %d (n=%d) q=%v: bid %v, oracle %v (fits %+v, %+v)", trial, n, q, g, w, got, want)
			}
		}
	}
}

// ar1Bid is the AR(1) baseline's bid from a fit, as baselines.AR1Bids
// computes it.
func ar1Bid(m AR1, q, maxPrice float64) float64 {
	bid := m.StationaryQuantile(q)
	if math.IsNaN(bid) || bid < spot.PriceTick {
		bid = maxPrice
	}
	return spot.NextTickAbove(spot.RoundToTick(bid))
}

func TestFitAR1MomentsTooShort(t *testing.T) {
	if _, ok := momentsOf([]int64{4, 5}).FitAR1(1); ok {
		t.Error("fit should fail with fewer than 3 points")
	}
}

func TestFitAR1MomentsConstantWindow(t *testing.T) {
	m, ok := momentsOf([]int64{7, 7, 7, 7}).FitAR1(0.5)
	if !ok || m.Phi != 0 || m.Sigma != 0 || m.Mu != 3.5 {
		t.Errorf("constant window fit = %+v, %v; want Mu 3.5, Phi 0, Sigma 0", m, ok)
	}
}
