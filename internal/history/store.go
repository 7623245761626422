package history

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/drafts-go/drafts/internal/spot"
)

// Store is a thread-safe archive of price series keyed by (zone, type)
// combo, enforcing the provider's 90-day retention window on reads. It
// plays the role of the EC2 DescribeSpotPriceHistory endpoint for every
// consumer in this repository.
type Store struct {
	mu     sync.RWMutex
	series map[spot.Combo]*Series
}

// NewStore returns an empty archive.
func NewStore() *Store {
	return &Store{series: make(map[spot.Combo]*Series)}
}

// Put installs (replacing) the series for a combo. The store takes
// ownership of the series; callers must not mutate it afterwards.
func (st *Store) Put(c spot.Combo, s *Series) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("put %v: %w", c, err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.series[c] = s
	return nil
}

// Append adds the next grid price to a combo's series, creating the series
// at start when absent.
func (st *Store) Append(c spot.Combo, start time.Time, price float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.series[c]
	if !ok {
		s = NewSeries(start)
		st.series[c] = s
	}
	s.Append(price)
}

// Combos lists the combos present, sorted.
func (st *Store) Combos() []spot.Combo {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]spot.Combo, 0, len(st.series))
	for c := range st.series {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Zone != out[j].Zone {
			return out[i].Zone < out[j].Zone
		}
		return out[i].Type < out[j].Type
	})
	return out
}

// Full returns the complete retained series for a combo (no retention
// clipping): the service's refresh and snapshot restore read it, as do
// the experiments. The result is a deep copy.
func (st *Store) Full(c spot.Combo) (*Series, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s, ok := st.series[c]
	if !ok {
		return nil, false
	}
	return s.Clone(), true
}

// History answers the provider-style query: the price series for combo c
// covering [from, to), clipped to the retention window measured backwards
// from now. This is what an external customer could actually observe.
func (st *Store) History(c spot.Combo, from, to, now time.Time) (*Series, error) {
	st.mu.RLock()
	s, ok := st.series[c]
	st.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("history: no series for %v", c)
	}
	oldest := now.Add(-Retention)
	if from.Before(oldest) {
		from = oldest
	}
	if to.After(now) {
		to = now
	}
	w := s.Window(from, to)
	return w.Clone(), nil
}

// Price returns the market price for combo c in force at time t.
func (st *Store) Price(c spot.Combo, t time.Time) (float64, error) {
	st.mu.RLock()
	s, ok := st.series[c]
	st.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("history: no series for %v", c)
	}
	p, ok := s.At(t)
	if !ok {
		return 0, fmt.Errorf("history: %v has no price at %v", c, t)
	}
	return p, nil
}
