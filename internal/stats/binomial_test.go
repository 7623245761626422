package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// naiveBinomialCDF sums the PMF directly; used to cross-check the
// incomplete-beta evaluation.
func naiveBinomialCDF(k, n int, p float64) float64 {
	s := 0.0
	for j := 0; j <= k && j <= n; j++ {
		s += BinomialPMF(j, n, p)
	}
	if s > 1 {
		s = 1
	}
	return s
}

func TestBinomialCDFMatchesDirectSum(t *testing.T) {
	for _, n := range []int{1, 2, 5, 17, 64, 200, 1000} {
		for _, p := range []float64{0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99} {
			for k := 0; k <= n; k += 1 + n/13 {
				want := naiveBinomialCDF(k, n, p)
				got := BinomialCDF(k, n, p)
				if math.Abs(got-want) > 1e-10 {
					t.Fatalf("BinomialCDF(%d,%d,%v) = %v, want %v", k, n, p, got, want)
				}
			}
		}
	}
}

func TestBinomialCDFEdges(t *testing.T) {
	if got := BinomialCDF(-1, 10, 0.5); got != 0 {
		t.Errorf("CDF(-1) = %v, want 0", got)
	}
	if got := BinomialCDF(10, 10, 0.5); got != 1 {
		t.Errorf("CDF(n) = %v, want 1", got)
	}
	if got := BinomialCDF(25, 10, 0.5); got != 1 {
		t.Errorf("CDF(>n) = %v, want 1", got)
	}
	if got := BinomialCDF(3, 10, 0); got != 1 {
		t.Errorf("CDF with p=0 = %v, want 1", got)
	}
	if got := BinomialCDF(3, 10, 1); got != 0 {
		t.Errorf("CDF(k<n) with p=1 = %v, want 0", got)
	}
	if !math.IsNaN(BinomialCDF(3, -1, 0.5)) {
		t.Error("CDF with negative n should be NaN")
	}
}

func TestBinomialSFComplementsCDF(t *testing.T) {
	for _, n := range []int{3, 40, 500} {
		for _, p := range []float64{0.025, 0.3, 0.8} {
			for k := 0; k <= n+1; k += 1 + n/7 {
				sum := BinomialSF(k, n, p) + BinomialCDF(k-1, n, p)
				if math.Abs(sum-1) > 1e-10 {
					t.Fatalf("SF(%d)+CDF(%d) = %v for n=%d p=%v, want 1", k, k-1, sum, n, p)
				}
			}
		}
	}
}

func TestBinomialSFTailAccuracy(t *testing.T) {
	// Deep tail where 1-CDF would cancel: P(X >= 50) for X~Bin(1000, 0.01)
	// is about 2.4e-24; direct log-space summation gives the reference.
	n, p, k := 1000, 0.01, 50
	ref := 0.0
	for j := k; j <= n; j++ {
		ref += BinomialPMF(j, n, p)
	}
	got := BinomialSF(k, n, p)
	if ref == 0 || math.Abs(got-ref)/ref > 1e-6 {
		t.Errorf("deep tail SF = %v, reference %v", got, ref)
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 7, 100} {
		for _, p := range []float64{0.025, 0.5, 0.99} {
			s := 0.0
			for k := 0; k <= n; k++ {
				s += BinomialPMF(k, n, p)
			}
			if math.Abs(s-1) > 1e-10 {
				t.Errorf("PMF over n=%d p=%v sums to %v", n, p, s)
			}
		}
	}
}

func TestUpperBoundIndexKnownValues(t *testing.T) {
	// For q=0.975, c=0.99 the bound first exists at n=182 (the sample
	// maximum), per MinSamplesForUpperBound.
	if n := MinSamplesForUpperBound(0.975, 0.99); n != 182 {
		t.Errorf("MinSamplesForUpperBound(0.975,0.99) = %d, want 182", n)
	}
	if _, ok := UpperBoundIndex(181, 0.975, 0.99); ok {
		t.Error("bound should not exist at n=181")
	}
	k, ok := UpperBoundIndex(182, 0.975, 0.99)
	if !ok || k != 1 {
		t.Errorf("UpperBoundIndex(182) = %d,%v want 1,true", k, ok)
	}
	// Larger n: the rank deepens but P(M >= k) must stay >= c and the next
	// rank must fail.
	for _, n := range []int{500, 1000, 5000, 26000} {
		k, ok := UpperBoundIndex(n, 0.975, 0.99)
		if !ok {
			t.Fatalf("no bound at n=%d", n)
		}
		if got := BinomialSF(k, n, 0.025); got < 0.99 {
			t.Errorf("n=%d: P(M>=%d) = %v < c", n, k, got)
		}
		if got := BinomialSF(k+1, n, 0.025); got >= 0.99 {
			t.Errorf("n=%d: rank %d not maximal (P(M>=%d)=%v)", n, k, k+1, got)
		}
	}
}

func TestUpperBoundIndexInvalidArgs(t *testing.T) {
	for _, c := range []struct {
		n    int
		q, c float64
	}{{0, 0.5, 0.9}, {-5, 0.5, 0.9}, {10, 0, 0.9}, {10, 1, 0.9}, {10, 0.5, 0}, {10, 0.5, 1}} {
		if _, ok := UpperBoundIndex(c.n, c.q, c.c); ok {
			t.Errorf("UpperBoundIndex(%d,%v,%v) should fail", c.n, c.q, c.c)
		}
		if _, ok := LowerBoundIndex(c.n, c.q, c.c); ok {
			t.Errorf("LowerBoundIndex(%d,%v,%v) should fail", c.n, c.q, c.c)
		}
	}
}

func TestLowerBoundIndexSymmetry(t *testing.T) {
	for _, n := range []int{200, 1000, 9000} {
		for _, q := range []float64{0.025, 0.05, 0.5} {
			kl, okl := LowerBoundIndex(n, q, 0.99)
			ku, oku := UpperBoundIndex(n, 1-q, 0.99)
			if okl != oku || kl != ku {
				t.Errorf("n=%d q=%v: lower (%d,%v) != mirrored upper (%d,%v)", n, q, kl, okl, ku, oku)
			}
		}
	}
}

// TestUpperBoundCoverage is the load-bearing property test: over many iid
// uniform samples, the chosen order statistic must cover the true quantile
// with frequency at least c (within Monte-Carlo noise).
func TestUpperBoundCoverage(t *testing.T) {
	rng := NewRNG(42)
	const (
		n      = 400
		q      = 0.95
		c      = 0.95
		trials = 2000
	)
	k, ok := UpperBoundIndex(n, q, c)
	if !ok {
		t.Fatal("no bound index")
	}
	covered := 0
	xs := make([]float64, n)
	for trial := 0; trial < trials; trial++ {
		for i := range xs {
			xs[i] = rng.Float64()
		}
		bound := KthSmallest(xs, n-k+1) // k-th largest
		if bound >= q {                 // true q-quantile of U(0,1) is q
			covered++
		}
	}
	frac := float64(covered) / trials
	// Allow 3 sigma of binomial noise below the nominal level.
	slack := 3 * math.Sqrt(c*(1-c)/trials)
	if frac < c-slack {
		t.Errorf("coverage %.4f below nominal %v (slack %.4f)", frac, c, slack)
	}
}

func TestLowerBoundCoverage(t *testing.T) {
	rng := NewRNG(7)
	const (
		n      = 400
		q      = 0.05
		c      = 0.95
		trials = 2000
	)
	k, ok := LowerBoundIndex(n, q, c)
	if !ok {
		t.Fatal("no bound index")
	}
	covered := 0
	xs := make([]float64, n)
	for trial := 0; trial < trials; trial++ {
		for i := range xs {
			xs[i] = rng.Float64()
		}
		bound := KthSmallest(xs, k)
		if bound <= q {
			covered++
		}
	}
	frac := float64(covered) / trials
	slack := 3 * math.Sqrt(c*(1-c)/trials)
	if frac < c-slack {
		t.Errorf("coverage %.4f below nominal %v (slack %.4f)", frac, c, slack)
	}
}

func TestBoundIndexMonotoneInN(t *testing.T) {
	// More data can only deepen (or keep) the rank, never make it shallower
	// by more than the discrete wobble of the binomial; specifically the
	// bound value should tighten stochastically. We check k is nondecreasing.
	prev := 0
	for n := 200; n <= 5000; n += 200 {
		k, ok := UpperBoundIndex(n, 0.975, 0.99)
		if !ok {
			t.Fatalf("no bound at n=%d", n)
		}
		if k < prev {
			t.Errorf("rank regressed at n=%d: %d < %d", n, k, prev)
		}
		prev = k
	}
}

func TestBoundIndexProperty(t *testing.T) {
	f := func(nRaw uint16, qRaw, cRaw uint16) bool {
		n := int(nRaw%5000) + 200
		q := 0.5 + float64(qRaw%499)/1000 // q in [0.5, 0.999)
		c := 0.90 + float64(cRaw%99)/1000 // c in [0.90, 0.989)
		k, ok := UpperBoundIndex(n, q, c)
		if !ok {
			// Must be because even the maximum fails.
			return BinomialSF(1, n, 1-q) < c
		}
		if k < 1 || k > n {
			return false
		}
		if BinomialSF(k, n, 1-q) < c {
			return false
		}
		return k == n || BinomialSF(k+1, n, 1-q) < c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMinSamplesGuard(t *testing.T) {
	if got := MinSamplesForUpperBound(-1, 0.99); got != 1 {
		t.Errorf("invalid q: got %d, want 1", got)
	}
	for _, q := range []float64{0.9, 0.95, 0.975, 0.995} {
		n := MinSamplesForUpperBound(q, 0.99)
		if _, ok := UpperBoundIndex(n, q, 0.99); !ok {
			t.Errorf("q=%v: bound missing at claimed minimum n=%d", q, n)
		}
		if n > 1 {
			if _, ok := UpperBoundIndex(n-1, q, 0.99); ok {
				t.Errorf("q=%v: bound already exists at n=%d", q, n-1)
			}
		}
	}
}

func TestWilsonInterval(t *testing.T) {
	// 95% interval for 8/10 (textbook value ~[0.49, 0.94]).
	lo, hi := WilsonInterval(8, 10, 0.95)
	if math.Abs(lo-0.4902) > 0.01 || math.Abs(hi-0.9433) > 0.01 {
		t.Errorf("Wilson(8,10) = [%.4f, %.4f]", lo, hi)
	}
	// Extremes clamp to [0,1].
	lo, hi = WilsonInterval(0, 20, 0.99)
	if lo != 0 || hi <= 0 || hi >= 1 {
		t.Errorf("Wilson(0,20) = [%v, %v]", lo, hi)
	}
	lo, hi = WilsonInterval(20, 20, 0.99)
	if hi != 1 || lo <= 0 {
		t.Errorf("Wilson(20,20) = [%v, %v]", lo, hi)
	}
	// Invalid inputs are NaN.
	if lo, _ := WilsonInterval(-1, 10, 0.95); !math.IsNaN(lo) {
		t.Error("negative k accepted")
	}
	if lo, _ := WilsonInterval(5, 0, 0.95); !math.IsNaN(lo) {
		t.Error("zero n accepted")
	}
	if lo, _ := WilsonInterval(5, 10, 1.5); !math.IsNaN(lo) {
		t.Error("bad confidence accepted")
	}
	// The interval must contain the point estimate and shrink with n.
	lo1, hi1 := WilsonInterval(95, 100, 0.95)
	lo2, hi2 := WilsonInterval(950, 1000, 0.95)
	if !(lo1 < 0.95 && 0.95 < hi1) || !(lo2 < 0.95 && 0.95 < hi2) {
		t.Error("interval excludes the point estimate")
	}
	if hi2-lo2 >= hi1-lo1 {
		t.Error("interval did not shrink with sample size")
	}
}

// TestWilsonCoverage: the interval must contain the true p with roughly
// the nominal frequency.
func TestWilsonCoverage(t *testing.T) {
	rng := NewRNG(12)
	const (
		n      = 200
		p      = 0.97
		conf   = 0.95
		trials = 2000
	)
	covered := 0
	for trial := 0; trial < trials; trial++ {
		k := 0
		for i := 0; i < n; i++ {
			if rng.Bernoulli(p) {
				k++
			}
		}
		lo, hi := WilsonInterval(k, n, conf)
		if lo <= p && p <= hi {
			covered++
		}
	}
	frac := float64(covered) / trials
	if frac < conf-0.03 {
		t.Errorf("coverage %.3f below nominal %v", frac, conf)
	}
}
