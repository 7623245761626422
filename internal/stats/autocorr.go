package stats

import "math"

// Autocorrelation returns the lag-k sample autocorrelation of xs, using the
// biased (n-denominator) estimator that guarantees the result lies in
// [-1, 1] for k < n. It is 0 for a series whose elements all have the same
// bits.
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag < 0 || lag >= n || n < 2 {
		return math.NaN()
	}
	mean := 0.0
	constant := true
	for _, x := range xs {
		mean += x
		constant = constant && math.Float64bits(x) == math.Float64bits(xs[0])
	}
	if constant {
		// A constant series has autocorrelation 0 by definition. Its
		// float mean need not equal the value (x = 0.2001 is not exact in
		// binary), and the deviations would then be one tiny constant
		// whose ratio is (n-lag)/n, not 0.
		return 0
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - mean
		den += d * d
		if i+lag < n {
			num += d * (xs[i+lag] - mean)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Correlation returns the Pearson correlation coefficient of two
// equal-length samples. It is NaN for mismatched or too-short inputs and 0
// when either sample is constant.
func Correlation(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return math.NaN()
	}
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// essTable maps bands of positive lag-1 autocorrelation to an
// effective-sample-size multiplier. The paper states that QBETS corrects
// for autocorrelation "via use of a table that captures the effect of the
// first autocorrelation on rare events" (§3.1). The entries below are the
// AR(1) effective-sample-size ratios n_eff/n = (1-ρ)/(1+ρ) evaluated at
// each band's midpoint, quantized into a table exactly because the original
// implementation used a lookup table rather than the closed form.
var essTable = []struct {
	rhoUpTo float64
	factor  float64
}{
	{0.05, 1.00},
	{0.15, 0.82},
	{0.25, 0.67},
	{0.35, 0.54},
	{0.45, 0.43},
	{0.55, 0.33},
	{0.65, 0.25},
	{0.75, 0.18},
	{0.85, 0.11},
	{0.95, 0.05},
	{1.01, 0.02},
}

// EffectiveSampleSize shrinks a sample size n to account for positive
// lag-1 autocorrelation rho, using the banded table above. Negative or
// NaN autocorrelation leaves n unchanged (anticorrelation only helps
// coverage, so ignoring it is conservative). The result is at least 1.
func EffectiveSampleSize(n int, rho float64) int {
	if n <= 1 || math.IsNaN(rho) || rho <= 0 {
		return n
	}
	factor := essTable[len(essTable)-1].factor
	for _, band := range essTable {
		if rho <= band.rhoUpTo {
			factor = band.factor
			break
		}
	}
	ne := int(math.Floor(float64(n) * factor))
	if ne < 1 {
		ne = 1
	}
	return ne
}
