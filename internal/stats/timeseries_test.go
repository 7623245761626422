package stats

import (
	"math"
	"testing"
)

func TestAutocorrelationLagZero(t *testing.T) {
	xs := []float64{1, 5, 2, 8, 3}
	if got := Autocorrelation(xs, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("lag-0 autocorrelation = %v, want 1", got)
	}
}

func TestAutocorrelationConstantSeries(t *testing.T) {
	xs := []float64{4, 4, 4, 4, 4}
	if got := Autocorrelation(xs, 1); got != 0 {
		t.Errorf("constant series autocorrelation = %v, want 0", got)
	}
}

// TestAutocorrelationConstantInexactValues: a flat window of a value that
// binary floating point cannot hold exactly has a mean a rounding error
// away from the value; its autocorrelation is still 0 at every lag, not
// (n-lag)/n, which EffectiveSampleSize would read as near-perfect
// correlation.
func TestAutocorrelationConstantInexactValues(t *testing.T) {
	for _, v := range []float64{0.2001, 0.0313, 66.2389} {
		for _, n := range []int{235, 4096} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = v
			}
			for _, lag := range []int{0, 1, 7} {
				if got := Autocorrelation(xs, lag); got != 0 {
					t.Errorf("%d copies of %v: lag-%d autocorrelation = %v, want 0", n, v, lag, got)
				}
			}
			if got := EffectiveSampleSize(n, Autocorrelation(xs, 1)); got != n {
				t.Errorf("%d copies of %v: effective sample size %d, want %d", n, v, got, n)
			}
		}
	}
}

func TestAutocorrelationInvalid(t *testing.T) {
	if !math.IsNaN(Autocorrelation([]float64{1}, 1)) {
		t.Error("too-short series should be NaN")
	}
	if !math.IsNaN(Autocorrelation([]float64{1, 2, 3}, -1)) {
		t.Error("negative lag should be NaN")
	}
	if !math.IsNaN(Autocorrelation([]float64{1, 2, 3}, 3)) {
		t.Error("lag >= n should be NaN")
	}
}

func TestAutocorrelationAR1Recovery(t *testing.T) {
	rng := NewRNG(5)
	const phi = 0.8
	xs := make([]float64, 20000)
	x := 0.0
	for i := range xs {
		x = phi*x + rng.NormFloat64()
		xs[i] = x
	}
	got := Autocorrelation(xs, 1)
	if math.Abs(got-phi) > 0.03 {
		t.Errorf("estimated lag-1 autocorrelation %v, want ~%v", got, phi)
	}
	got2 := Autocorrelation(xs, 2)
	if math.Abs(got2-phi*phi) > 0.04 {
		t.Errorf("estimated lag-2 autocorrelation %v, want ~%v", got2, phi*phi)
	}
}

func TestAutocorrelationBounded(t *testing.T) {
	rng := NewRNG(8)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Pareto(1, 1.2) // heavy-tailed input
	}
	for lag := 0; lag < 10; lag++ {
		rho := Autocorrelation(xs, lag)
		if rho < -1-1e-9 || rho > 1+1e-9 {
			t.Errorf("lag-%d autocorrelation %v outside [-1,1]", lag, rho)
		}
	}
}

func TestEffectiveSampleSize(t *testing.T) {
	if got := EffectiveSampleSize(1000, 0); got != 1000 {
		t.Errorf("rho=0: %d, want 1000", got)
	}
	if got := EffectiveSampleSize(1000, -0.5); got != 1000 {
		t.Errorf("negative rho should not shrink: %d", got)
	}
	if got := EffectiveSampleSize(1000, math.NaN()); got != 1000 {
		t.Errorf("NaN rho should not shrink: %d", got)
	}
	if got := EffectiveSampleSize(1000, 0.5); got != 330 {
		t.Errorf("rho=0.5: %d, want 330 (table factor 0.33)", got)
	}
	if got := EffectiveSampleSize(1000, 0.99); got != 20 {
		t.Errorf("rho=0.99: %d, want 20 (table factor 0.02)", got)
	}
	if got := EffectiveSampleSize(10, 0.99); got != 1 {
		t.Errorf("floor at 1: got %d", got)
	}
	if got := EffectiveSampleSize(1, 0.9); got != 1 {
		t.Errorf("n=1 unchanged: got %d", got)
	}
}

func TestEffectiveSampleSizeMonotone(t *testing.T) {
	prev := math.MaxInt
	for rho := 0.0; rho <= 1.0; rho += 0.01 {
		ne := EffectiveSampleSize(10000, rho)
		if ne > prev {
			t.Fatalf("ESS increased at rho=%v: %d > %d", rho, ne, prev)
		}
		prev = ne
	}
}

func TestFitAR1Recovery(t *testing.T) {
	rng := NewRNG(11)
	const (
		mu    = 5.0
		phi   = 0.7
		sigma = 0.5
	)
	xs := make([]float64, 50000)
	x := mu
	for i := range xs {
		x = mu + phi*(x-mu) + rng.Normal(0, sigma)
		xs[i] = x
	}
	m, ok := FitAR1(xs)
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(m.Mu-mu) > 0.05 {
		t.Errorf("Mu = %v, want ~%v", m.Mu, mu)
	}
	if math.Abs(m.Phi-phi) > 0.03 {
		t.Errorf("Phi = %v, want ~%v", m.Phi, phi)
	}
	if math.Abs(m.Sigma-sigma) > 0.03 {
		t.Errorf("Sigma = %v, want ~%v", m.Sigma, sigma)
	}
}

func TestFitAR1TooShort(t *testing.T) {
	if _, ok := FitAR1([]float64{1, 2}); ok {
		t.Error("fit should fail with fewer than 3 points")
	}
}

func TestAR1StationaryQuantile(t *testing.T) {
	m := AR1{Mu: 10, Phi: 0.6, Sigma: 0.8}
	sd := m.StationaryStddev()
	want := 0.8 / math.Sqrt(1-0.36)
	if math.Abs(sd-want) > 1e-12 {
		t.Errorf("StationaryStddev = %v, want %v", sd, want)
	}
	q := m.StationaryQuantile(0.975)
	if math.Abs(q-(10+1.959963984540054*sd)) > 1e-9 {
		t.Errorf("StationaryQuantile(0.975) = %v", q)
	}
	if got := m.StationaryQuantile(0.5); math.Abs(got-10) > 1e-12 {
		t.Errorf("median should equal Mu, got %v", got)
	}
}

func TestAR1UnitRootClamp(t *testing.T) {
	// A random walk fits with phi ~ 1; the clamp must keep the stationary
	// quantile finite.
	rng := NewRNG(13)
	xs := make([]float64, 5000)
	x := 0.0
	for i := range xs {
		x += rng.NormFloat64()
		xs[i] = x
	}
	m, ok := FitAR1(xs)
	if !ok {
		t.Fatal("fit failed")
	}
	if m.Phi >= 1 || m.Phi <= -1 {
		t.Errorf("Phi = %v not clamped into (-1,1)", m.Phi)
	}
	if q := m.StationaryQuantile(0.975); math.IsNaN(q) || math.IsInf(q, 0) {
		t.Errorf("stationary quantile not finite: %v", q)
	}
}
