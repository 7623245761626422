package stats

import (
	"math"
	"math/big"
)

// AR1 is a fitted first-order autoregressive model
//
//	x_t - mu = phi * (x_{t-1} - mu) + eps_t,  eps_t ~ N(0, sigma^2).
//
// Ben-Yehuda et al. (cited in §4.1.3) model Spot price series as piecewise
// AR(1); the paper's AR(1) comparison baseline fits this model to the
// segment between change points and uses quantiles of its stationary
// distribution as bids.
type AR1 struct {
	Mu    float64 // process mean
	Phi   float64 // lag-1 coefficient, clamped to (-1, 1) for stationarity
	Sigma float64 // innovation standard deviation
}

// Moments are the exact sums an AR(1) fit reads off a window x_0..x_{n-1}
// of integer observations, such as prices counted in ticks. Callers that
// keep prefix sums get any window's Moments in O(1).
type Moments struct {
	N           int64
	Sum         int64 // Σ x_i
	SumSq       int64 // Σ x_i²
	LagSum      int64 // Σ x_i·x_{i+1}, i < n-1
	First, Last int64 // x_0 and x_{n-1}
}

// FitAR1 estimates an AR(1) model by the Yule-Walker method, with Mu and
// Sigma scaled by unit, the value of one integer step of the observations
// (such as one price tick): phi is the lag-1 autocorrelation as
// Autocorrelation defines it, mu the sample mean, and sigma derived from
// the unbiased sample variance via var = sigma^2 / (1 - phi^2). At least
// three observations are required; ok is false otherwise.
//
// With S1 = Sum, S2 = SumSq, L = LagSum and the deviations taken about
// m = S1/n, the autocorrelation's numerator and denominator scaled by n²
// are the integers
//
//	n²·num = n²L − n·S1·(2S1 − x_0 − x_{n-1}) + (n−1)·S1²
//	n²·den = n·(n·S2 − S1²),
//
// evaluated exactly in big integers: phi is their ratio correctly
// rounded, and the variance is two roundings from exact. A constant
// window (den = 0) has phi = 0, as in Autocorrelation.
func (m Moments) FitAR1(unit float64) (AR1, bool) {
	if m.N < 3 {
		return AR1{}, false
	}
	var n, s1, sq, dev, ends, num, t big.Int
	n.SetInt64(m.N)
	s1.SetInt64(m.Sum)
	sq.Mul(&s1, &s1)
	// dev = n·S2 − S1² = n·Σ(x_i − m)², so the unbiased variance is
	// dev / (n(n−1)) and n²·den = n·dev.
	dev.Mul(&n, t.SetInt64(m.SumSq)).Sub(&dev, &sq)
	variance, _ := new(big.Float).SetInt(&dev).Float64()
	variance /= float64(m.N) * float64(m.N-1)
	phi := 0.0
	if dev.Sign() != 0 {
		ends.Lsh(&s1, 1).Sub(&ends, t.SetInt64(m.First)).Sub(&ends, t.SetInt64(m.Last))
		num.Mul(&n, &n).Mul(&num, t.SetInt64(m.LagSum))
		num.Sub(&num, ends.Mul(&ends, &s1).Mul(&ends, &n))
		num.Add(&num, sq.Mul(&sq, t.SetInt64(m.N-1)))
		den := new(big.Float).SetInt(dev.Mul(&dev, &n))
		phi, _ = new(big.Float).SetPrec(53).Quo(new(big.Float).SetInt(&num), den).Float64()
	}
	// Clamp away from the unit root so the stationary variance exists.
	const maxPhi = 0.999
	if phi > maxPhi {
		phi = maxPhi
	}
	if phi < -maxPhi {
		phi = -maxPhi
	}
	mean := float64(m.Sum) / float64(m.N)
	return AR1{Mu: mean * unit, Phi: phi, Sigma: math.Sqrt(variance*(1-phi*phi)) * unit}, true
}

// StationaryStddev returns the standard deviation of the stationary
// distribution, sigma / sqrt(1 - phi^2).
func (m AR1) StationaryStddev() float64 {
	den := 1 - m.Phi*m.Phi
	if den <= 0 {
		return math.Inf(1)
	}
	return m.Sigma / math.Sqrt(den)
}

// StationaryQuantile returns the q-th quantile of the model's Gaussian
// stationary distribution. This is what the AR(1) baseline bids: the target
// quantile of the fitted process, treated as a bound on all future values
// of the stationary segment (§4.1.3).
func (m AR1) StationaryQuantile(q float64) float64 {
	return m.Mu + NormalQuantile(q)*m.StationaryStddev()
}
