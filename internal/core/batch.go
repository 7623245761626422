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
// It runs the step-1 price QBETS online over the series and, for step 2,
// one runTracker per distinct price in the series plus one for the levels
// above them all. A bid level selects the same ticks as the smallest
// series price at or above it, so each absolute bid-grid level, and each
// query's minimum bid (which falls between grid levels), reads that
// price's tracker. A tick updates only the trackers at or below its price;
// a query reads each tracker it needs once, in O(log² W) for a window of
// W ticks, however many grid levels share it.
//
// The two kinds of entry keep their historical windows, one start apart.
// A grid level counts the episodes starting in [i-W, i), W = MaxHistory;
// the minimum-bid entry counts those starting in [i-W+1, i), the starts
// within the W prices the step-1 predictor retains. Both exclude the
// query tick i itself.
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
	qd, c, w := params.DurationQuantile(), params.Confidence, params.MaxHistory
	grid := geometricGrid(lo+spot.PriceTick, b.MaxBid, tableRatio)

	// One tracker per distinct price, ascending, then one that no price
	// crosses for the levels above them all.
	prices := distinctPrices(s.Prices)
	trackers := make([]*runTracker, len(prices)+1)
	for j := range trackers {
		trackers[j] = newRunTracker(w, qd, c)
	}
	gridTracker := make([]int, len(grid))
	for gi, lvl := range grid {
		gridTracker[gi] = sort.SearchFloat64s(prices, lvl)
	}
	// Per-query memo of each tracker's grid guarantee: stamp[j] == qi+1
	// once tracker j has answered query qi.
	stamp := make([]int, len(trackers))
	guarantee := make([]time.Duration, len(trackers))

	pricePred, err := qbets.New(priceQBETSConfig(params))
	if err != nil {
		return nil, err
	}

	out := make([]BidTable, 0, len(queries))
	next, touch, last := 0, 0, math.Float64bits(math.NaN())
	for i, price := range s.Prices {
		pricePred.Observe(price)
		if bits := math.Float64bits(price); bits != last {
			// A tick crosses the trackers at or below its price.
			touch, last = sort.SearchFloat64s(prices, price)+1, bits
			if math.IsNaN(price) {
				touch = 0
			}
		}
		for _, tr := range trackers[:touch] {
			tr.cross(i)
		}
		if next == len(queries) || queries[next] != i {
			continue
		}
		upper, ok := pricePred.Bound()
		if !ok {
			return nil, fmt.Errorf("core: no price bound at index %d", i)
		}
		bid0 := minBid(upper)
		first := sort.Search(len(grid), func(gi int) bool { return grid[gi] > bid0 })
		table := BidTable{At: s.TimeAt(i), Probability: params.Probability}
		table.Points = make([]BidPoint, 1, 1+len(grid)-first)

		// Grid levels count the starts in [i-w, i). They are read before
		// the minimum-bid entry, whose horizon is one later, so no
		// tracker's horizon ever decreases.
		for gi := first; gi < len(grid); gi++ {
			j := gridTracker[gi]
			if stamp[j] != next+1 {
				stamp[j] = next + 1
				guarantee[j] = trackers[j].guarantee(i, max(i-w, 0), s.Step)
			}
			table.Points = append(table.Points, BidPoint{Bid: grid[gi], Duration: guarantee[j]})
		}
		// The minimum bid falls between grid levels and counts the starts
		// in [i-w+1, i): the window of the price predictor's retention,
		// which holds w ticks including tick i.
		j0 := sort.SearchFloat64s(prices, bid0)
		table.Points[0] = BidPoint{Bid: bid0, Duration: trackers[j0].guarantee(i, max(i-w+1, 0), s.Step)}
		enforceMonotone(table.Points)
		out = append(out, table)
		next++
	}
	return out, nil
}

// distinctPrices returns the distinct non-NaN values of prices, ascending.
// Spot prices hold for many ticks and revisit a few ladder rungs, so the
// list is short and each new value is found by bisection.
func distinctPrices(prices []float64) []float64 {
	var out []float64
	last := math.Float64bits(math.NaN())
	for _, p := range prices {
		bits := math.Float64bits(p)
		if bits == last || math.IsNaN(p) {
			continue
		}
		last = bits
		if j := sort.SearchFloat64s(out, p); j == len(out) || out[j] > p {
			out = append(out, 0)
			copy(out[j+1:], out[j:])
			out[j] = p
		}
	}
	return out
}
