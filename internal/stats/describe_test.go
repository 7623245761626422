package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDescribe(t *testing.T) {
	s := Describe([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Errorf("N = %d, want 8", s.N)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	// Sample variance with n-1 denominator: 32/7.
	if math.Abs(s.Variance-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", s.Variance, 32.0/7.0)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min,Max = %v,%v want 2,9", s.Min, s.Max)
	}
	if math.Abs(s.Stddev()-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Errorf("Stddev = %v", s.Stddev())
	}
}

func TestDescribeEmptyAndSingle(t *testing.T) {
	s := Describe(nil)
	if s.N != 0 || s.Mean != 0 || s.Variance != 0 || s.Min != 0 || s.Max != 0 {
		t.Errorf("empty Describe = %+v", s)
	}
	s = Describe([]float64{3.5})
	if s.N != 1 || s.Mean != 3.5 || s.Variance != 0 || s.Min != 3.5 || s.Max != 3.5 {
		t.Errorf("single Describe = %+v", s)
	}
}

func TestQuantileSorted(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.05, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.95, 10}, {1, 10}, {1.5, 10}, {-1, 1},
	}
	for _, c := range cases {
		if got := QuantileSorted(data, c.q); got != c.want {
			t.Errorf("QuantileSorted(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(QuantileSorted(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestQuantileUnsortedMatchesSorted(t *testing.T) {
	rng := NewRNG(1)
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	for _, q := range []float64{0.01, 0.33, 0.5, 0.9, 0.975} {
		if got, want := Quantile(xs, q), QuantileSorted(cp, q); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestKthSmallestMatchesSort(t *testing.T) {
	rng := NewRNG(99)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(rng.Float64() * 20) // many duplicates
		}
		cp := append([]float64(nil), xs...)
		sort.Float64s(cp)
		k := 1 + rng.Intn(n)
		if got := KthSmallest(xs, k); got != cp[k-1] {
			t.Fatalf("KthSmallest(%v, %d) = %v, want %v", xs, k, got, cp[k-1])
		}
	}
}

func TestKthSmallestDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	orig := append([]float64(nil), xs...)
	_ = KthSmallest(xs, 3)
	for i := range xs {
		if xs[i] != orig[i] {
			t.Fatal("KthSmallest mutated its input")
		}
	}
}

func TestKthSmallestPanicsOutOfRange(t *testing.T) {
	for _, k := range []int{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("KthSmallest with k=%d did not panic", k)
				}
			}()
			KthSmallest([]float64{1, 2, 3}, k)
		}()
	}
}

func TestKthSmallestProperty(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		k := int(kRaw)%len(xs) + 1
		got := KthSmallest(xs, k)
		cp := append([]float64(nil), xs...)
		sort.Float64s(cp)
		return got == cp[k-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// QuantileSorted returns the q-th empirical quantile of data that is
// already sorted ascending, using the inverse-CDF (type 1) definition: the
// smallest observation x such that ECDF(x) >= q. This is the definition
// the paper's "Empirical-CDF" baseline bidder uses. The tests read sample
// quantiles with it.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// Quantile sorts a copy of xs and returns QuantileSorted.
func Quantile(xs []float64, q float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return QuantileSorted(cp, q)
}

// KthSmallest returns the k-th smallest element (1-based) of xs without
// fully sorting it, using in-place quickselect on a copy: the order
// statistic the confidence-bound coverage tests check. It panics if k is
// out of range; callers always derive k from the sample length.
func KthSmallest(xs []float64, k int) float64 {
	if k < 1 || k > len(xs) {
		panic("stats: KthSmallest rank out of range")
	}
	cp := append([]float64(nil), xs...)
	return quickselect(cp, k-1)
}

// quickselect partitions a around the median-of-three pivot until the
// element at target rank is in place.
func quickselect(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		// Median-of-three pivot to avoid quadratic behaviour on sorted input.
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return a[k]
		}
	}
	return a[k]
}
