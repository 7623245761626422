// Package stats provides the hand-rolled statistical machinery the rest of
// the repository is built on: exact binomial tail probabilities (via the
// regularized incomplete beta function), non-parametric quantile
// confidence-bound ranks (the heart of QBETS), sample moments,
// autocorrelation and AR(1) estimation, and seeded random variate
// generators for the synthetic market.
//
// Only the Go standard library is used; every special function is
// implemented here and cross-checked in the tests against direct summation.
package stats

import (
	"fmt"
	"math"
)

// BinomialCDF returns P(X <= k) for X ~ Binomial(n, p).
//
// This is Equation 2 of the paper with p = 1-q: the probability that no
// more than k of n observations exceed the q-th quantile of their common
// distribution. It is evaluated through the regularized incomplete beta
// function, P(X <= k) = I_{1-p}(n-k, k+1), which is exact up to floating
// point and O(1) in n.
func BinomialCDF(k, n int, p float64) float64 {
	switch {
	case n < 0:
		return math.NaN()
	case k < 0:
		return 0
	case k >= n:
		return 1
	case p <= 0:
		return 1
	case p >= 1:
		return 0
	}
	return RegIncBeta(float64(n-k), float64(k+1), 1-p)
}

// BinomialSF returns the survival function P(X >= k) for X ~ Binomial(n, p).
// It is computed directly (not as 1-CDF) so that tiny tail probabilities do
// not cancel to zero.
func BinomialSF(k, n int, p float64) float64 {
	switch {
	case n < 0:
		return math.NaN()
	case k <= 0:
		return 1
	case k > n:
		return 0
	case p <= 0:
		return 0
	case p >= 1:
		return 1
	}
	// P(X >= k) = I_p(k, n-k+1).
	return RegIncBeta(float64(k), float64(n-k+1), p)
}

// MinSamplesForUpperBound returns the smallest history length n for which
// an upper c-confidence bound on the q-quantile exists at all (the sample
// maximum only covers the quantile with probability 1 - q^n).
func MinSamplesForUpperBound(q, c float64) int {
	if q <= 0 || q >= 1 || c <= 0 || c >= 1 {
		return 1
	}
	n := int(math.Ceil(math.Log(1-c) / math.Log(q)))
	if n < 1 {
		n = 1
	}
	// Guard against boundary rounding.
	for 1-math.Pow(q, float64(n)) < c {
		n++
	}
	return n
}

func checkQuantileArgs(n int, q, c float64) error {
	if n <= 0 {
		return fmt.Errorf("stats: non-positive sample size %d", n)
	}
	if !(q > 0 && q < 1) {
		return fmt.Errorf("stats: quantile %v outside (0,1)", q)
	}
	if !(c > 0 && c < 1) {
		return fmt.Errorf("stats: confidence %v outside (0,1)", c)
	}
	return nil
}

// WilsonInterval returns the Wilson score confidence interval for a
// binomial proportion: the range of true success probabilities consistent
// with observing k successes in n trials at the given confidence level.
// The paper leans on exactly this kind of reasoning when it re-examines
// the single backtest combination that scored 0.98 against a 0.99 target
// and attributes the miss to random variation (§4.1.1).
func WilsonInterval(k, n int, confidence float64) (lo, hi float64) {
	if n <= 0 || k < 0 || k > n || !(confidence > 0 && confidence < 1) {
		return math.NaN(), math.NaN()
	}
	z := NormalQuantile(1 - (1-confidence)/2)
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	margin := z / denom * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	lo, hi = center-margin, center+margin
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
