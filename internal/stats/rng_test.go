package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestNormalMoments(t *testing.T) {
	rng := NewRNG(1)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = rng.Normal(3, 2)
	}
	s := Describe(xs)
	if math.Abs(s.Mean-3) > 0.05 {
		t.Errorf("mean = %v, want ~3", s.Mean)
	}
	if math.Abs(s.Stddev()-2) > 0.05 {
		t.Errorf("stddev = %v, want ~2", s.Stddev())
	}
}

func TestLogNormalMedian(t *testing.T) {
	rng := NewRNG(2)
	xs := make([]float64, 50001)
	for i := range xs {
		xs[i] = rng.LogNormal(1, 0.5)
	}
	med := Quantile(xs, 0.5)
	if math.Abs(med-math.E) > 0.1 {
		t.Errorf("median = %v, want ~e", med)
	}
}

func TestExponentialMean(t *testing.T) {
	rng := NewRNG(3)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += rng.Exponential(7)
	}
	if mean := sum / n; math.Abs(mean-7) > 0.15 {
		t.Errorf("mean = %v, want ~7", mean)
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := NewRNG(4)
	for _, mean := range []float64{0.5, 4, 30, 200} {
		const n = 20000
		sum, sumsq := 0.0, 0.0
		for i := 0; i < n; i++ {
			k := float64(rng.Poisson(mean))
			sum += k
			sumsq += k * k
		}
		m := sum / n
		v := sumsq/n - m*m
		if math.Abs(m-mean) > 0.05*mean+0.1 {
			t.Errorf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(v-mean) > 0.1*mean+0.3 {
			t.Errorf("Poisson(%v) variance = %v", mean, v)
		}
	}
	if got := NewRNG(1).Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d", got)
	}
	if got := NewRNG(1).Poisson(-3); got != 0 {
		t.Errorf("Poisson(-3) = %d", got)
	}
}

func TestParetoSupportAndMedian(t *testing.T) {
	rng := NewRNG(5)
	const (
		xm    = 2.0
		alpha = 1.5
		n     = 50001
	)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Pareto(xm, alpha)
		if xs[i] < xm {
			t.Fatalf("Pareto draw %v below scale %v", xs[i], xm)
		}
	}
	med := Quantile(xs, 0.5)
	want := xm * math.Pow(2, 1/alpha)
	if math.Abs(med-want)/want > 0.05 {
		t.Errorf("median = %v, want ~%v", med, want)
	}
}

func TestBernoulli(t *testing.T) {
	rng := NewRNG(6)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if rng.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %v", frac)
	}
}

func TestUniformRange(t *testing.T) {
	rng := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := rng.UniformRange(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("UniformRange draw %v outside [-2,5)", v)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	c1 := NewRNG(ForkSeed(42, 1))
	c2 := NewRNG(ForkSeed(42, 2))
	same := 0
	for i := 0; i < 64; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("forked streams overlap: %d identical draws of 64", same)
	}
}

func TestForkSeedDeterministic(t *testing.T) {
	if ForkSeed(10, 3) != ForkSeed(10, 3) {
		t.Error("ForkSeed not deterministic")
	}
	if ForkSeed(10, 3) == ForkSeed(10, 4) {
		t.Error("adjacent labels collided")
	}
	if ForkSeed(10, 3) == ForkSeed(11, 3) {
		t.Error("adjacent seeds collided")
	}
}

// Pareto draws from a Pareto distribution with scale xm > 0 and shape
// alpha > 0: the heavy-tailed input of the tests.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}
