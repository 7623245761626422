package stats

import "math"

// Summary holds the usual moments and extremes of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n-1 denominator); 0 when N < 2
	Min, Max float64
}

// Describe computes a Summary in a single pass (Welford's algorithm).
func Describe(xs []float64) Summary {
	s := Summary{Min: math.Inf(1), Max: math.Inf(-1)}
	var m2 float64
	for _, x := range xs {
		s.N++
		d := x - s.Mean
		s.Mean += d / float64(s.N)
		m2 += d * (x - s.Mean)
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	if s.N == 0 {
		s.Min, s.Max = 0, 0
	}
	if s.N > 1 {
		s.Variance = m2 / float64(s.N-1)
	}
	return s
}

// Stddev is the square root of the unbiased variance.
func (s Summary) Stddev() float64 { return math.Sqrt(s.Variance) }
