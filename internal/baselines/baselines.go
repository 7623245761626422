// Package baselines implements the three comparator bid-determination
// methods the paper evaluates against DrAFTS in Table 1:
//
//   - On-demand: bid the instance type's fixed On-demand price — the
//     natural "surely this is enough" heuristic (§4.1.2);
//   - AR(1): fit a first-order autoregressive model to the price segment
//     since the last detected change point (the Ben-Yehuda et al. market
//     model) and bid the target quantile of its stationary Gaussian
//     distribution (§4.1.3);
//   - Empirical CDF: bid the empirically observed quantile of the price
//     history (§4.1.3).
//
// All three produce a bid per query moment given only history before that
// moment; none of them can target a requested duration, which is exactly
// the gap DrAFTS fills.
package baselines

import (
	"fmt"
	"math"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/qbets"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/stats"
)

// Method names, used in experiment reports.
const (
	MethodDrAFTS   = "DrAFTS"
	MethodOnDemand = "On-demand"
	MethodAR1      = "AR(1)"
	MethodECDF     = "Empirical-CDF"
)

// Methods lists the comparator set in the paper's Table 1 order.
func Methods() []string {
	return []string{MethodDrAFTS, MethodOnDemand, MethodAR1, MethodECDF}
}

// OnDemandBids returns the constant On-demand bid for every query.
func OnDemandBids(odPrice float64, queries []int) []float64 {
	out := make([]float64, len(queries))
	for i := range out {
		out[i] = odPrice
	}
	return out
}

// validateQueries checks index ranges and ordering against a series.
func validateQueries(s *history.Series, queries []int) error {
	if s == nil || s.Len() == 0 {
		return fmt.Errorf("baselines: empty series")
	}
	for i, q := range queries {
		if q < 0 || q >= s.Len() {
			return fmt.Errorf("baselines: query %d outside series of %d points", q, s.Len())
		}
		if i > 0 && q <= queries[i-1] {
			return fmt.Errorf("baselines: queries must be strictly ascending")
		}
	}
	return nil
}

// window returns prices[max(0, i+1-maxHistory) .. i].
func window(prices []float64, i, maxHistory int) []float64 {
	lo := 0
	if maxHistory > 0 && i+1 > maxHistory {
		lo = i + 1 - maxHistory
	}
	return prices[lo : i+1]
}

// ECDFBids returns, for each query index, the empirical q-quantile of the
// price window ending there plus one price tick — the paper's
// Empirical-CDF method. A durability target p maps to quantile p directly
// (the method has no duration notion to split the probability with). The
// one-tick premium mirrors the DrAFTS premium (§3.2): with tick-quantized
// prices the quantile frequently lands exactly on a recurring price atom,
// and a bid equal to the market price is already eligible for
// termination, so any reasonable implementation bids the minimum
// increment above the quantile.
//
// The window slides forward through the queries in a Fenwick tree over
// integer ticks, so each price enters and leaves it once and each quantile
// is one O(log m) Select, with no copy of the window. That relies on the
// tick-grid invariant history.Series documents; a price off the grid is an
// error. stats.KthSmallest over the window is the test oracle.
func ECDFBids(s *history.Series, quantile float64, maxHistory int, queries []int) ([]float64, error) {
	if !(quantile > 0 && quantile < 1) {
		return nil, fmt.Errorf("baselines: quantile %v outside (0,1)", quantile)
	}
	if err := validateQueries(s, queries); err != nil {
		return nil, err
	}
	win := qbets.NewFenwickStore(1, 0)
	lo, hi := 0, 0 // win holds the ticks of s.Prices[lo:hi]
	out := make([]float64, len(queries))
	for qi, q := range queries {
		from := 0
		if maxHistory > 0 && q+1 > maxHistory {
			from = q + 1 - maxHistory
		}
		for ; lo < from && lo < hi; lo++ {
			win.Remove(float64(spot.Ticks(s.Prices[lo])))
		}
		for i := max(hi, from); i <= q; i++ {
			p := s.Prices[i]
			t := spot.Ticks(p)
			// Exact membership: the float must be the tick's own value, or
			// the quantile read back from the tree would not be the price.
			if t < 0 || math.Float64bits(spot.FromTicks(t)) != math.Float64bits(p) {
				return nil, fmt.Errorf("baselines: price %v at index %d is off the %v tick grid", p, i, spot.PriceTick)
			}
			win.Insert(float64(t))
		}
		lo, hi = from, q+1
		k := int(math.Ceil(quantile * float64(hi-lo)))
		if k < 1 {
			k = 1
		}
		if k > hi-lo {
			k = hi - lo
		}
		out[qi] = spot.NextTickAbove(spot.FromTicks(int(win.Select(k))))
	}
	return out, nil
}

// minAR1Segment floors the AR(1) fit span at thirty days of 5-minute
// points: the band-and-regime structure of Spot prices mixes on a scale of
// weeks, and a Gaussian quantile fitted on less covers only a fragment of
// the price range.
const minAR1Segment = 30 * 24 * 12

// AR1Bids returns, for each query index, the bid produced by fitting an
// AR(1) model to the price segment since the most recent change point and
// taking the target quantile of its stationary distribution, plus the same
// one-tick premium as ECDFBids. Change points are detected with the same
// non-parametric binomial method DrAFTS uses
// (§4.1.3: "this approach uses an AR(1) model in place of the
// non-parametric QBETS to determine bounds"; "without change-point
// detection, the comparison would unfairly penalize the AR(1) approach").
func AR1Bids(s *history.Series, quantile, confidence float64, maxHistory int, queries []int) ([]float64, error) {
	if !(quantile > 0 && quantile < 1) {
		return nil, fmt.Errorf("baselines: quantile %v outside (0,1)", quantile)
	}
	if err := validateQueries(s, queries); err != nil {
		return nil, err
	}
	seg, err := qbets.New(qbets.Config{
		Kind:       qbets.UpperBound,
		Quantile:   quantile,
		Confidence: confidence,
		MaxHistory: maxHistory,
		NewStore: func() qbets.OrderStats {
			return qbets.NewLevelStore(spot.PriceTick)
		},
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(queries))
	next := 0
	for i, price := range s.Prices {
		seg.Observe(price)
		if next < len(queries) && queries[next] == i {
			// The predictor's retained history is exactly the segment the
			// change-point detector considers stationary. The fit span is
			// floored at minAR1Segment — the scale of the long stationary
			// segments Ben-Yehuda et al. report; a quantile fitted on less
			// is meaningless.
			segLen := seg.Len()
			if segLen < minAR1Segment {
				segLen = minAR1Segment
			}
			w := window(s.Prices, i, maxHistory)
			if segLen < len(w) {
				w = w[len(w)-segLen:]
			}
			bid := math.NaN()
			if m, ok := stats.FitAR1(w); ok {
				bid = m.StationaryQuantile(quantile)
			}
			if math.IsNaN(bid) || bid < spot.PriceTick {
				// Degenerate fit: fall back to the sample maximum.
				bid = stats.Describe(w).Max
			}
			out[next] = spot.NextTickAbove(spot.RoundToTick(bid))
			next++
		}
	}
	return out, nil
}
