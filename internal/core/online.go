package core

import (
	"fmt"
	"math"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/qbets"
	"github.com/drafts-go/drafts/internal/spot"
)

// Predictor is the online DrAFTS forecaster for one market: feed it market
// prices as they are announced and query bids at the current moment. This
// is the form the DrAFTS web service runs (§3.3: "the predictor state can
// be updated incrementally whenever a new price data point is available").
type Predictor struct {
	params Params
	price  *qbets.Predictor

	start time.Time
	step  time.Duration

	prices []float64 // retained price history (window of MaxHistory)
	head   int
	count  int // total observations ever
}

// Quote is a bid recommendation.
type Quote struct {
	Bid float64
	// Duration is the probabilistically guaranteed continuous availability
	// at this bid.
	Duration time.Duration
	// Probability is the durability target the guarantee is made at.
	Probability float64
}

// NewPredictor creates an online predictor whose first observation
// corresponds to time start on the standard 5-minute grid.
func NewPredictor(params Params, start time.Time) (*Predictor, error) {
	params, err := params.withDefaults()
	if err != nil {
		return nil, err
	}
	pq, err := qbets.New(priceQBETSConfig(params))
	if err != nil {
		return nil, err
	}
	return &Predictor{
		params: params,
		price:  pq,
		start:  start,
		step:   spot.UpdatePeriod,
	}, nil
}

// Params returns the effective (default-filled) parameters.
func (p *Predictor) Params() Params { return p.params }

// Clone returns an independent deep copy of the predictor. Feeding original
// and clone the same subsequent observations yields identical tables and
// quotes — the invariant behind the service's incremental refresh, which
// clones the previously installed (and immutably serving) predictor and
// observes only the ticks that arrived since, instead of re-ingesting the
// whole history window.
func (p *Predictor) Clone() *Predictor {
	q := *p
	q.price = p.price.Clone()
	q.prices = append([]float64(nil), p.prices[p.head:]...)
	q.head = 0
	return &q
}

// Observe feeds the next market price announcement.
func (p *Predictor) Observe(price float64) {
	if math.IsNaN(price) || math.IsInf(price, 0) || price <= 0 {
		return
	}
	mObservations.Load().Inc()
	p.price.Observe(price)
	p.prices = append(p.prices, price)
	p.count++
	if p.params.MaxHistory > 0 && p.window() > p.params.MaxHistory {
		p.head++
		if p.head > len(p.prices)/2 && p.head > 4096 {
			p.prices = append(p.prices[:0], p.prices[p.head:]...)
			p.head = 0
		}
	}
}

// ObserveSeries bulk-feeds a recorded series (e.g. three months of history
// fetched at startup) and aligns the predictor clock with it.
func (p *Predictor) ObserveSeries(s *history.Series) {
	if p.count == 0 {
		p.start = s.Start
		p.step = s.Step
	}
	for _, v := range s.Prices {
		p.Observe(v)
	}
}

func (p *Predictor) window() int { return len(p.prices) - p.head }

func (p *Predictor) hist() []float64 { return p.prices[p.head:] }

// Len returns the number of retained observations.
func (p *Predictor) Len() int { return p.window() }

// Now returns the time of the latest observation.
func (p *Predictor) Now() time.Time {
	if p.count == 0 {
		return p.start
	}
	return p.start.Add(time.Duration(p.count-1) * p.step)
}

// Warmed reports whether the price bound carries full confidence.
func (p *Predictor) Warmed() bool { return p.price.Warmed() }

// MinBid returns the smallest bid DrAFTS will quote right now: one tick
// above the QBETS upper bound on the next market price.
func (p *Predictor) MinBid() (float64, bool) {
	upper, ok := p.price.Bound()
	if !ok {
		return 0, false
	}
	return minBid(upper), true
}

// GuaranteeFor returns the duration an instance bidding `bid` survives
// with probability at least Params.Probability, given the current history.
// ok is false with no data; a zero duration means nothing can be promised.
func (p *Predictor) GuaranteeFor(bid float64) (time.Duration, bool) {
	h := p.hist()
	if len(h) == 0 {
		return 0, false
	}
	rank := durationRank(p.params.DurationQuantile(), p.params.Confidence)
	steps, ok := durationBoundScan(h, bid, &rank)
	if !ok {
		return 0, false
	}
	return time.Duration(steps) * p.step, true
}

// Table builds the service-style bid table at the current moment: the
// minimum bid, then 5% increments up to 4x the minimum (§3.3). Each
// guarantee is read off the advise walk (Surface), here cut short at the
// table's last bid, so a table costs one duration scan per distinct table
// bid up to the walk's ceiling. Durations are monotone non-decreasing in
// the bid.
func (p *Predictor) Table() (BidTable, bool) {
	s, ok := p.walk(tableSpanMult, 0)
	if !ok {
		return BidTable{}, false
	}
	return s.Table(p.Now()), true
}

// ceiling is the highest bid the advise walk reaches: one tick above 1.25x
// the highest retained price (a bid no observed market movement has ever
// reached), and never below the minimum bid bid0.
func (p *Predictor) ceiling(bid0 float64) float64 {
	maxSeen := 0.0
	for _, v := range p.hist() {
		if v > maxSeen {
			maxSeen = v
		}
	}
	return max(spot.NextTickAbove(1.25*maxSeen), bid0)
}

// Advise returns the smallest bid that guarantees the requested duration
// with the configured probability. It runs the advise walk (Surface)
// from the minimum bid, beyond the service's table span if necessary, and
// stops at the first entry covering d or at the ceiling: one tick above
// 1.25x the highest retained price. An error is returned if even that
// cannot promise d — the caller should fall back to a reliable
// (On-demand) instance, per the §4.4 cost-optimization strategy.
//
// Advise scans the history at every step; the service answers the same
// question from a precomputed AdviseSurface instead.
func (p *Predictor) Advise(d time.Duration) (Quote, error) {
	mAdviseCalls.Load().Inc()
	if d <= 0 {
		return Quote{}, fmt.Errorf("core: non-positive duration %v", d)
	}
	s, ok := p.walk(math.Inf(1), d)
	if !ok {
		return Quote{}, fmt.Errorf("core: no price history")
	}
	last := s.Best()
	if last.Bid > spot.FromTicks(int(s.Bids[0]))*tableSpanMult {
		mAdviseEscalations.Load().Inc()
	}
	if last.Duration < d {
		return last, s.CannotGuarantee(d)
	}
	return last, nil
}
