package core

import (
	"math"
	"testing"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/spot"
)

// Survival returns how many grid steps an instance launched at grid point
// i of s with the given bid runs before the provider terminates it: the
// distance to the first later grid point whose market price is at or above
// the bid (the conservative "eligible to be terminated" reading of §3.2).
// censored is true when the price never reaches the bid within the series;
// steps is then the observed-so-far survival, s.Len()-1-i.
//
// It scans to the first termination or the end of the series, which
// Survives no longer does; it is the oracle Survives must agree with as
// steps >= need.
func Survival(s *history.Series, i int, bid float64) (steps int, censored bool) {
	if i < 0 || i >= s.Len() {
		return 0, true
	}
	for j := i + 1; j < s.Len(); j++ {
		if s.Prices[j] >= bid {
			return j - i, false
		}
	}
	return s.Len() - 1 - i, true
}

// FuzzSurvives checks the duration-bounded Survives against the Survival
// oracle. Each input is a short series of small tick prices and a bid;
// every launch point from before the series to past its end is tried
// with every need from -1 to past the end, so each input covers i out of
// range, need <= 0, i+need == Len-1 (the last need that can succeed) and
// i+need == Len, plus needs and launch points at the ends of int's range.
func FuzzSurvives(f *testing.F) {
	f.Add([]byte{1, 1, 3, 1, 5, 1}, uint8(2))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0}, uint8(0))
	f.Add([]byte{4, 4, 4, 4}, uint8(4))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(15))
	f.Fuzz(func(t *testing.T, raw []byte, bidTicks uint8) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		s := history.NewSeries(t0)
		for _, b := range raw {
			s.Append(spot.FromTicks(int(b % 16)))
		}
		bid := spot.FromTicks(int(bidTicks % 18))
		n := s.Len()
		check := func(i, need int) {
			steps, _ := Survival(s, i, bid)
			if got, want := Survives(s, i, bid, need), steps >= need; got != want {
				t.Fatalf("prices %v bid %v: Survives(i=%d, need=%d) = %v, Survival says %d steps", s.Prices, bid, i, need, got, steps)
			}
		}
		for i := -2; i <= n+1; i++ {
			for need := -1; need <= n+2; need++ {
				check(i, need)
			}
			check(i, math.MaxInt)
			check(i, math.MinInt)
		}
		for _, i := range []int{math.MinInt, math.MaxInt} {
			for need := -1; need <= 2; need++ {
				check(i, need)
			}
		}
	})
}
