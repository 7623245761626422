package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/qbets"
	"github.com/drafts-go/drafts/internal/spot"
)

// Batch computes DrAFTS bid tables at many points of a recorded price
// series in one pass — the workhorse of backtesting (§4.1), where the
// predictor must be evaluated at hundreds of moments per (zone, type)
// combination.
//
// It runs the step-1 price QBETS online over the series, maintains one
// levelTracker per absolute bid-grid level for step 2, and snapshots
// everything at the requested query indices. The per-query minimum bid
// additionally gets an exact single-shot duration scan, since it falls
// between grid levels.
type Batch struct {
	Series *history.Series
	Params Params
	// MaxBid is the bid-grid ceiling; tables never quote above it. A
	// sensible choice is comfortably above both the On-demand price and
	// the highest price in the series (see SuggestedMaxBid).
	MaxBid float64
}

// SuggestedMaxBid returns a grid ceiling covering every useful bid: 1.25x
// the series maximum (a bid above every observed price) or 1.5x On-demand,
// whichever is larger.
func SuggestedMaxBid(s *history.Series, odPrice float64) float64 {
	max := 0.0
	for _, p := range s.Prices {
		if p > max {
			max = p
		}
	}
	v := 1.25 * max
	if w := 1.5 * odPrice; w > v {
		v = w
	}
	return spot.RoundToTick(v)
}

// Tables evaluates the predictor at the given strictly-ascending grid
// indices and returns one full-grid BidTable per query (bids from the
// momentary minimum bid up to MaxBid). Present-moment information only:
// the table at query index i uses prices[0..i] and nothing later.
func (b *Batch) Tables(queries []int) ([]BidTable, error) {
	params, err := b.Params.withDefaults()
	if err != nil {
		return nil, err
	}
	s := b.Series
	if s == nil || s.Len() == 0 {
		return nil, fmt.Errorf("core: batch needs a non-empty series")
	}
	if !(b.MaxBid > 0) {
		return nil, fmt.Errorf("core: batch needs a positive MaxBid")
	}
	for qi, q := range queries {
		if q < 0 || q >= s.Len() {
			return nil, fmt.Errorf("core: query index %d outside series of %d points", q, s.Len())
		}
		if qi > 0 && q <= queries[qi-1] {
			return nil, fmt.Errorf("core: query indices must be strictly ascending")
		}
	}

	// Absolute bid grid: from one tick above the minimum price observed
	// before the first query (no bid below that can be quoted as a
	// minimum bid there) up to MaxBid. Anchoring on pre-query data only
	// keeps every table a pure function of its own past; should prices
	// later sink below the anchor, the momentary minimum-bid entry —
	// always computed exactly — still leads the table.
	anchorEnd := s.Len()
	if len(queries) > 0 {
		anchorEnd = queries[0] + 1
	}
	lo := math.Inf(1)
	for _, p := range s.Prices[:anchorEnd] {
		if p < lo {
			lo = p
		}
	}
	qd, c := params.DurationQuantile(), params.Confidence
	grid := geometricGrid(lo+spot.PriceTick, b.MaxBid, tableRatio)
	trackers := make([]*levelTracker, len(grid))
	for i, lvl := range grid {
		trackers[i] = newLevelTracker(lvl, params.MaxHistory, qd, c)
	}

	pricePred, err := qbets.New(priceQBETSConfig(params))
	if err != nil {
		return nil, err
	}

	minBidRank := durationRank(qd, c)
	out := make([]BidTable, 0, len(queries))
	next := 0
	for i, price := range s.Prices {
		pricePred.Observe(price)
		for _, tr := range trackers {
			tr.observe(i, price)
		}
		if next < len(queries) && queries[next] == i {
			upper, ok := pricePred.Bound()
			if !ok {
				return nil, fmt.Errorf("core: no price bound at index %d", i)
			}
			bid0 := minBid(upper)
			table := BidTable{At: s.TimeAt(i), Probability: params.Probability}

			// Exact entry for the momentary minimum bid. The scan window
			// matches the price predictor's retention.
			win := s.Prices[:i+1]
			if params.MaxHistory > 0 && len(win) > params.MaxHistory {
				win = win[len(win)-params.MaxHistory:]
			}
			if steps, _, ok := durationBoundScan(win, bid0, &minBidRank, nil); ok {
				table.Points = append(table.Points, BidPoint{
					Bid:      bid0,
					Duration: time.Duration(steps) * s.Step,
				})
			} else {
				table.Points = append(table.Points, BidPoint{Bid: bid0})
			}

			for gi, lvl := range grid {
				if lvl <= bid0 {
					continue
				}
				steps, ok := trackers[gi].bound()
				pt := BidPoint{Bid: lvl}
				if ok {
					pt.Duration = time.Duration(steps) * s.Step
				}
				table.Points = append(table.Points, pt)
			}
			sort.Slice(table.Points, func(a, b int) bool { return table.Points[a].Bid < table.Points[b].Bid })
			enforceMonotone(table.Points)
			out = append(out, table)
			next++
		}
	}
	return out, nil
}
