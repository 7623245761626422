// Package stats provides the hand-rolled statistical machinery the rest of
// the repository is built on: exact binomial tail probabilities (via the
// regularized incomplete beta function), non-parametric quantile
// confidence-bound indices (the heart of QBETS), empirical distribution
// helpers, autocorrelation and AR(1) estimation, and seeded random variate
// generators for the synthetic market.
//
// Only the Go standard library is used; every special function is
// implemented here and cross-checked in the tests against direct summation.
package stats

import (
	"fmt"
	"math"
)

// BinomialPMF returns P(X = k) for X ~ Binomial(n, p), computed in log
// space so that it remains accurate for n in the tens of thousands.
func BinomialPMF(k, n int, p float64) float64 {
	if k < 0 || k > n || n < 0 {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(n + 1))
	lgk, _ := math.Lgamma(float64(k + 1))
	lgnk, _ := math.Lgamma(float64(n - k + 1))
	logp := lg - lgk - lgnk + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
	return math.Exp(logp)
}

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

// UpperBoundIndex returns the 1-based rank k, counted from the LARGEST
// observation, such that the k-th largest of n i.i.d. observations is an
// upper confidence bound at level c on the q-th quantile of their common
// distribution, and k is the deepest (tightest) rank that still achieves
// confidence c.
//
// Derivation: let M be the number of observations strictly above the
// q-quantile Q; M ~ Binomial(n, 1-q). The k-th largest observation Y(k)
// satisfies Y(k) >= Q exactly when M >= k, so
//
//	P(Y(k) >= Q) = P(M >= k) = 1 - BinomialCDF(k-1, n, 1-q).
//
// The function returns the largest k with P(M >= k) >= c. ok is false when
// even the sample maximum (k = 1) does not reach confidence c, i.e. when
// 1 - q^n < c; the caller then needs a longer history (for q = 0.975 and
// c = 0.99 this means n >= 182).
func UpperBoundIndex(n int, q, c float64) (k int, ok bool) {
	if err := checkQuantileArgs(n, q, c); err != nil {
		return 0, false
	}
	// P(M >= k) is nonincreasing in k. Binary search the largest k in
	// [1, n] with BinomialSF(k, n, 1-q) >= c.
	if BinomialSF(1, n, 1-q) < c {
		return 0, false
	}
	return deepestRank(n, 1, n, q, c), true
}

// deepestRank bisects [lo, hi] for the largest k with
// BinomialSF(k, n, 1-q) >= c, given that lo qualifies.
func deepestRank(n, lo, hi int, q, c float64) int {
	for lo < hi { // invariant: SF(lo) >= c, answer in [lo, hi]
		mid := (lo + hi + 1) / 2
		if BinomialSF(mid, n, 1-q) >= c {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// RankCursor answers UpperBoundIndex for one fixed (q, c) over a sequence
// of sample sizes that drift a little between calls — one more
// observation, one evicted, an effective size nudged by a new
// autocorrelation estimate — which is how every online QBETS consumer asks.
//
// The rank k(n) never decreases in n and rises by at most 1 per unit of n:
// adding one observation can lift the count above the quantile by at most
// one. So after answering (n0, k0), the answer for n lies in
// [k0, k0+(n-n0)] when n grew and in [k0-(n0-n), k0] when it shrank, and
// the cursor bisects only that bracket: O(log |n-n0|) incomplete-beta
// evaluations instead of O(log n), and none for a repeated n. If the
// bracket's lower end does not reach confidence c — floating point
// disagreeing with the monotonicity argument, or a sample that shrank
// below the first bounded size — it falls back to the full bisection.
//
// Sizes too small for any bound (a history regrowing after a change
// point) are the same argument at k = 1: the cursor finds the first
// bounded size once, answers every size below it with no evaluation, and
// anchors there at rank 1 when the sample grows past it.
//
// Results are identical to UpperBoundIndex
// (TestRankCursorMatchesUpperBoundIndex). The zero value is unusable;
// build one with NewRankCursor. A RankCursor is a plain value: copying it
// copies its memory, and it is not safe for concurrent use.
type RankCursor struct {
	q, c float64
	n, k int // last answered query; n == 0 before the first
	ok   bool
	minN int // first size with a bound; 0 until a query without one
}

// NewRankCursor returns a cursor for UpperBoundIndex(·, q, c). A lower
// bound on the q-quantile uses NewRankCursor(1-q, c), the argument
// LowerBoundIndex passes on.
func NewRankCursor(q, c float64) RankCursor { return RankCursor{q: q, c: c} }

// Index returns UpperBoundIndex(n, q, c).
func (rc *RankCursor) Index(n int) (k int, ok bool) {
	if n == rc.n {
		return rc.k, rc.ok
	}
	k, ok = rc.index(n)
	rc.n, rc.k, rc.ok = n, k, ok
	return k, ok
}

func (rc *RankCursor) index(n int) (int, bool) {
	if n <= 0 || rc.n <= 0 {
		return UpperBoundIndex(n, rc.q, rc.c)
	}
	n0, k0 := rc.n, rc.k
	if !rc.ok {
		if rc.minN == 0 {
			rc.minN = rc.firstBounded()
		}
		n0, k0 = rc.minN, 1
	}
	if rc.minN > 0 && n < rc.minN {
		return 0, false
	}
	lo, hi := k0, k0+(n-n0)
	if n < n0 {
		lo, hi = k0-(n0-n), k0
	}
	lo, hi = max(lo, 1), min(hi, n)
	if lo > hi || BinomialSF(lo, n, 1-rc.q) < rc.c {
		return UpperBoundIndex(n, rc.q, rc.c)
	}
	return deepestRank(n, lo, hi, rc.q, rc.c), true
}

// firstBounded returns the smallest n for which UpperBoundIndex finds a
// bound, or math.MaxInt when the arguments admit none. The sample
// maximum's confidence BinomialSF(1, n, 1-q) = 1-q^n grows with n, so
// this is a walk from MinSamplesForUpperBound's closed-form estimate to
// where the evaluated confidence crosses c.
func (rc *RankCursor) firstBounded() int {
	if checkQuantileArgs(1, rc.q, rc.c) != nil {
		return math.MaxInt
	}
	n := MinSamplesForUpperBound(rc.q, rc.c)
	for n > 1 && BinomialSF(1, n-1, 1-rc.q) >= rc.c {
		n--
	}
	for BinomialSF(1, n, 1-rc.q) < rc.c {
		n++
	}
	return n
}

// LowerBoundIndex returns the 1-based rank k, counted from the SMALLEST
// observation, such that the k-th smallest of n i.i.d. observations is a
// lower confidence bound at level c on the q-th quantile, with k the
// deepest (tightest) such rank.
//
// By the symmetry x -> -x, the k-th smallest bounds the q-quantile from
// below exactly when the k-th largest of the negated sample bounds the
// (1-q)-quantile from above, so this is UpperBoundIndex(n, 1-q, c).
func LowerBoundIndex(n int, q, c float64) (k int, ok bool) {
	if err := checkQuantileArgs(n, q, c); err != nil {
		return 0, false
	}
	return UpperBoundIndex(n, 1-q, c)
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
