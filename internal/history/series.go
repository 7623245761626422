// Package history stores and serves Spot market price histories.
//
// It mirrors the contract of the EC2 price-history API the paper relies on
// (§2.2): per-(zone, instance type) series of market price announcements,
// retained for at most 90 days, queryable by time range. Because price
// updates arrive with an approximately 5-minute periodicity, series are
// held on a uniform 5-minute grid (the same regularization the DrAFTS
// on-line service performs before forecasting); Resample converts
// irregular announcement streams onto the grid with
// last-observation-carried-forward semantics.
package history

import (
	"fmt"
	"math"
	"time"

	"github.com/drafts-go/drafts/internal/spot"
)

// Retention is how much history the provider keeps available for
// programmatic access ("up to 90 days", §2.2).
const Retention = 90 * 24 * time.Hour

// Series is a uniform-grid price history: Prices[i] is the market price in
// force from Start+i*Step until the next grid point.
type Series struct {
	Start  time.Time
	Step   time.Duration
	Prices []float64
}

// NewSeries allocates an empty series beginning at start with the standard
// market update period.
func NewSeries(start time.Time) *Series {
	return &Series{Start: start, Step: spot.UpdatePeriod}
}

// Len returns the number of grid points.
func (s *Series) Len() int { return len(s.Prices) }

// End returns the time just past the final grid point (the moment the
// series stops describing).
func (s *Series) End() time.Time {
	return s.Start.Add(time.Duration(len(s.Prices)) * s.Step)
}

// TimeAt returns the timestamp of grid point i.
func (s *Series) TimeAt(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Step)
}

// IndexOf returns the grid index whose interval contains t (the floor
// index). It is negative if t precedes the series start and Len() or more
// if t is at or beyond the series end.
func (s *Series) IndexOf(t time.Time) int {
	if s.Step <= 0 {
		return 0
	}
	d := t.Sub(s.Start)
	idx := int(math.Floor(float64(d) / float64(s.Step)))
	return idx
}

// At returns the market price in force at time t; ok is false outside the
// series' span.
func (s *Series) At(t time.Time) (price float64, ok bool) {
	i := s.IndexOf(t)
	if i < 0 || i >= len(s.Prices) {
		return 0, false
	}
	return s.Prices[i], true
}

// Append adds the next grid point's price.
func (s *Series) Append(p float64) { s.Prices = append(s.Prices, p) }

// Slice returns a view (shared backing array) covering grid indices
// [from, to). Out-of-range bounds are clamped.
func (s *Series) Slice(from, to int) *Series {
	if from < 0 {
		from = 0
	}
	if to > len(s.Prices) {
		to = len(s.Prices)
	}
	if from > to {
		from = to
	}
	return &Series{Start: s.TimeAt(from), Step: s.Step, Prices: s.Prices[from:to]}
}

// Window returns the sub-series covering [from, to) as a view.
func (s *Series) Window(from, to time.Time) *Series {
	i := s.IndexOf(from)
	if from.After(s.TimeAt(i)) { // partial interval: start at the next full point
		i++
	}
	j := s.IndexOf(to)
	if to.After(s.TimeAt(j)) {
		j++
	}
	return s.Slice(i, j)
}

// Clone deep-copies the series.
func (s *Series) Clone() *Series {
	cp := &Series{Start: s.Start, Step: s.Step, Prices: make([]float64, len(s.Prices))}
	copy(cp.Prices, s.Prices)
	return cp
}

// Points materializes the series as explicit price announcements.
func (s *Series) Points() []spot.PricePoint {
	out := make([]spot.PricePoint, len(s.Prices))
	for i, p := range s.Prices {
		out[i] = spot.PricePoint{At: s.TimeAt(i), Price: p}
	}
	return out
}

// Validate checks structural invariants: a positive step and finite,
// positive prices. It does not check that prices lie on the tick grid:
// the predictors snap each price to its tick as they observe it (core's
// price window and QBETS's LevelStore).
func (s *Series) Validate() error {
	if s.Step <= 0 {
		return fmt.Errorf("history: non-positive step %v", s.Step)
	}
	for i, p := range s.Prices {
		if math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 {
			return fmt.Errorf("history: invalid price %v at index %d", p, i)
		}
	}
	return nil
}

// Resample converts an irregular stream of price announcements (sorted by
// time) into a uniform grid covering [start, end) with step spot.UpdatePeriod,
// carrying the last announced price forward across quiet intervals. Points
// before start set the initial level; an error is returned if no
// announcement precedes or coincides with start.
func Resample(points []spot.PricePoint, start, end time.Time) (*Series, error) {
	if !end.After(start) {
		return nil, fmt.Errorf("history: empty resample window [%v, %v)", start, end)
	}
	for i := 1; i < len(points); i++ {
		if points[i].At.Before(points[i-1].At) {
			return nil, fmt.Errorf("history: announcements out of order at %d", i)
		}
	}
	s := NewSeries(start)
	cur := math.NaN()
	j := 0
	for t := start; t.Before(end); t = t.Add(s.Step) {
		for j < len(points) && !points[j].At.After(t) {
			cur = points[j].Price
			j++
		}
		if math.IsNaN(cur) {
			return nil, fmt.Errorf("history: no announcement at or before %v", t)
		}
		s.Append(cur)
	}
	return s, nil
}
