package history

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/drafts-go/drafts/internal/spot"
)

// Store is a thread-safe archive of price series keyed by (zone, type)
// combo. It plays the role of the EC2 DescribeSpotPriceHistory endpoint
// for every consumer in this repository. It keeps every price it is given:
// the provider's 90-day retention (Retention) holds downstream, where
// core.DefaultMaxHistory bounds every predictor's window and WAL
// compaction drops segments older than both Retention and every installed
// predictor's window.
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
// the experiments. The result is a read-only view, not a copy: its
// Prices are the series' prices at the call, capped at their length, so
// a later Append (which only writes past that length, or moves the series
// to a new array) never shows through and a later Put installs a new
// series. Callers must not write to it.
func (st *Store) Full(c spot.Combo) (*Series, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s, ok := st.series[c]
	if !ok {
		return nil, false
	}
	n := len(s.Prices)
	return &Series{Start: s.Start, Step: s.Step, Prices: s.Prices[:n:n]}, true
}
