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
	"math/bits"

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

// tickAt returns prices[i] as a whole number of ticks. Both windowed
// baselines read prices back as exact integer ticks, which relies on the
// tick-grid invariant history.Series documents, so a price whose float is
// not its tick's own value is an error.
func tickAt(prices []float64, i int) (int64, error) {
	p := prices[i]
	t := spot.Ticks(p)
	if t < 0 || math.Float64bits(spot.FromTicks(t)) != math.Float64bits(p) {
		return 0, fmt.Errorf("baselines: price %v at index %d is off the %v tick grid", p, i, spot.PriceTick)
	}
	return int64(t), nil
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
// error. A sorted copy of the window is the test oracle.
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
			t, err := tickAt(s.Prices, i)
			if err != nil {
				return nil, err
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

// sumsFit reports whether n prices of at most maxTick ticks keep the
// int64 prefix sums AR1Bids keeps exact. Every sum of ticks, squared
// ticks or lag-1 tick products over n prices is at most n·maxTick², so
// n·maxTick² < 2⁶² keeps the sums, and the differences taken between
// them, in range. At the catalog's highest price ($66.24, 662,400 ticks)
// that allows over ten million prices, ~100 years of 5-minute ticks.
func sumsFit(n int, maxTick int64) bool {
	hi, sq := bits.Mul64(uint64(maxTick), uint64(maxTick))
	if hi != 0 {
		return false
	}
	hi, lo := bits.Mul64(uint64(n), sq)
	return hi == 0 && lo < 1<<62
}

// tickSums are sums over a series' first k prices in ticks t_j: Σt_j,
// Σt_j² and the lag-1 products Σt_{j-1}·t_j, each over j < k.
type tickSums struct{ sum, sumSq, lagSum int64 }

// tickPrefix holds the tickSums of every prefix read so far: element k
// covers the first k prices, so element 0 is zero.
type tickPrefix []tickSums

// push extends the prefix sums by one price of t ticks.
func (p *tickPrefix) push(t int64) {
	n := len(*p)
	s := (*p)[n-1]
	if n > 1 {
		s.lagSum += (s.sum - (*p)[n-2].sum) * t // the previous price's ticks times t
	}
	s.sum += t
	s.sumSq += t * t
	*p = append(*p, s)
}

// moments returns the exact moments of prices [lo, hi), hi > lo, read
// off the prefix sums in O(1); the first and last ticks are differences
// of adjacent sums.
func (p tickPrefix) moments(lo, hi int) stats.Moments {
	a, b := p[lo], p[hi]
	return stats.Moments{
		N:      int64(hi - lo),
		Sum:    b.sum - a.sum,
		SumSq:  b.sumSq - a.sumSq,
		LagSum: b.lagSum - p[lo+1].lagSum,
		First:  p[lo+1].sum - a.sum,
		Last:   b.sum - p[hi-1].sum,
	}
}

// AR1Bids returns, for each query index, the bid produced by fitting an
// AR(1) model to the price segment since the most recent change point and
// taking the target quantile of its stationary distribution, plus the same
// one-tick premium as ECDFBids. Change points are detected with the same
// non-parametric binomial method DrAFTS uses
// (§4.1.3: "this approach uses an AR(1) model in place of the
// non-parametric QBETS to determine bounds"; "without change-point
// detection, the comparison would unfairly penalize the AR(1) approach").
//
// The fit is Yule-Walker (stats.Moments.FitAR1). Its moments come from
// int64 prefix sums of the prices in ticks, kept in the same pass that
// feeds the change-point detector, so each query costs O(1) however long
// its window: O(series) per call, not O(series + queries × window). That
// relies on the tick-grid invariant, so a price off the grid is an error,
// as is a series long and dear enough to overflow the sums (sumsFit).
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
	if len(queries) == 0 {
		return out, nil
	}
	last := queries[len(queries)-1]
	sums := make(tickPrefix, 1, last+2)
	var maxTick int64
	next := 0
	for i, price := range s.Prices[:last+1] {
		t, err := tickAt(s.Prices, i)
		if err != nil {
			return nil, err
		}
		maxTick = max(maxTick, t)
		if !sumsFit(i+1, maxTick) {
			return nil, fmt.Errorf("baselines: %d prices up to %v overflow the AR(1) tick sums", i+1, spot.FromTicks(int(maxTick)))
		}
		sums.push(t)
		seg.Observe(price)
		if queries[next] != i {
			continue
		}
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
		if fit, ok := sums.moments(i+1-len(w), i+1).FitAR1(spot.PriceTick); ok {
			bid = fit.StationaryQuantile(quantile)
		}
		if math.IsNaN(bid) || bid < spot.PriceTick {
			// Degenerate fit: fall back to the sample maximum.
			bid = stats.Describe(w).Max
		}
		out[next] = spot.NextTickAbove(spot.RoundToTick(bid))
		next++
	}
	return out, nil
}
