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

	win   tickWindow // the last MaxHistory offered ticks; full chunks shared with clones and siblings
	count int        // ticks offered ever, dropped prices included: the clock
	// dropped is the clock count of the newest offered tick whose window
	// tick is maybeDropped, 0 when there is none (see Oldest).
	dropped int
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
		win:    tickWindow{limit: params.MaxHistory},
	}, nil
}

// Params returns the effective (default-filled) parameters.
func (p *Predictor) Params() Params { return p.params }

// Clone returns an independent copy of the predictor. Feeding original
// and clone the same subsequent observations yields identical tables and
// quotes — the invariant behind the service's incremental refresh, which
// clones the previously installed (and immutably serving) predictor and
// observes only the ticks that arrived since, instead of re-ingesting the
// whole history window. The clone shares the window's full chunks, which
// never change, and copies only its partly filled tail.
func (p *Predictor) Clone() *Predictor {
	q := *p
	q.price = p.price.Clone()
	q.win = p.win.clone()
	return &q
}

// Observe feeds the next market price announcement. Every call advances
// the clock by one tick; a price the predictor drops (see validPrice)
// keeps its window slot as tick 0 and is neither counted nor seen by the
// price bound. Before the first accepted price a dropped one takes no
// slot: it moves the start, so the window never begins with one.
func (p *Predictor) Observe(price float64) {
	if p.count == 0 && !validPrice(price) {
		p.start = p.start.Add(p.step)
		return
	}
	p.count++
	t := windowTick(price)
	p.win.push(t)
	if maybeDropped(t) {
		p.dropped = p.count
	}
	if validPrice(price) {
		mObservations.Load().Inc()
		p.price.Observe(price)
	}
}

// ObserveAll feeds prices in order, exactly as one Observe per price
// would, and counts the accepted prices with one counter Add for the call
// (here and in the price QBETS) instead of one per price.
func (p *Predictor) ObserveAll(prices []float64) {
	for p.count == 0 && len(prices) > 0 && !validPrice(prices[0]) {
		p.start = p.start.Add(p.step)
		prices = prices[1:]
	}
	p.count += len(prices)
	if k := p.win.pushPrices(prices); k > 0 {
		p.dropped = p.count - len(prices) + k
	}
	p.observePrice(prices)
}

// observePrice feeds the valid prices among prices, in order, to the
// price QBETS alone, and counts them with one counter Add.
func (p *Predictor) observePrice(prices []float64) {
	accepted := 0
	for len(prices) > 0 {
		n := 0
		for n < len(prices) && validPrice(prices[n]) {
			n++
		}
		if n > 0 {
			p.price.ObserveAll(prices[:n])
			accepted += n
		}
		for n < len(prices) && !validPrice(prices[n]) {
			n++
		}
		prices = prices[n:]
	}
	mObservations.Load().Add(uint64(accepted))
}

// Sibling returns the predictor for params over the same market as p, at
// p's clock. It reads p's window: like Clone, it shares every full chunk
// and copies only the partly filled tail, so the market's ticks are
// pushed into a window once however many probabilities read them, and
// only the sibling's own price QBETS observes the prices. params must
// keep p's MaxHistory, the window's limit.
//
// prices end with the prices p was offered, its latest last (a history
// series' prices up to Now). With old nil the sibling is built cold: a
// new price QBETS observes every price p was offered. Otherwise old is
// params' predictor at the clock p was extended from (the sibling of p's
// predecessor, or a predictor restored next to it), and a clone of old's
// price QBETS observes only the prices p was offered since. The clock
// checks are O(1); that old saw the same prices as p up to its clock is
// the caller's to keep (the service reads both from one series).
func (p *Predictor) Sibling(params Params, old *Predictor, prices []float64) (*Predictor, error) {
	params, err := params.withDefaults()
	if err != nil {
		return nil, err
	}
	if params.MaxHistory != p.params.MaxHistory {
		return nil, fmt.Errorf("core: sibling max history %d differs from the window's %d", params.MaxHistory, p.params.MaxHistory)
	}
	q := &Predictor{
		params:  params,
		start:   p.start,
		step:    p.step,
		win:     p.win.clone(),
		count:   p.count,
		dropped: p.dropped,
	}
	seen := 0 // ticks old was offered
	if old == nil {
		q.price, err = qbets.New(priceQBETSConfig(params))
		if err != nil {
			return nil, err
		}
	} else {
		if old.params != params || !old.start.Equal(p.start) || old.step != p.step || old.count > p.count {
			return nil, fmt.Errorf("core: sibling's predecessor (p=%v, %d ticks from %v) is not on the clock of %d ticks from %v",
				old.params.Probability, old.count, old.start, p.count, p.start)
		}
		q.price = old.price.Clone()
		seen = old.count
	}
	fresh := p.count - seen
	if fresh > len(prices) {
		return nil, fmt.Errorf("core: %d prices given, the sibling needs the last %d", len(prices), fresh)
	}
	q.observePrice(prices[len(prices)-fresh:])
	return q, nil
}

// validPrice reports whether Observe accepts price: market prices are
// finite and positive.
func validPrice(price float64) bool {
	return !math.IsNaN(price) && !math.IsInf(price, 0) && price > 0
}

// ObserveSeries bulk-feeds a recorded series (e.g. three months of history
// fetched at startup) and aligns the predictor clock with it.
func (p *Predictor) ObserveSeries(s *history.Series) {
	if p.count == 0 {
		p.start = s.Start
		p.step = s.Step
	}
	p.ObserveAll(s.Prices)
}

// Len returns the number of retained ticks, dropped prices' slots
// included.
func (p *Predictor) Len() int { return p.win.n }

// Now returns the time of the latest offered tick; with none yet, the time
// the first will have.
func (p *Predictor) Now() time.Time {
	if p.count == 0 {
		return p.start
	}
	return p.start.Add(time.Duration(p.count-1) * p.step)
}

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
// A retained tick reaches the bid when it reaches levelTick(bid), the
// smallest tick priced at or above it. ok is false with no data; a zero
// duration means nothing can be promised.
func (p *Predictor) GuaranteeFor(bid float64) (time.Duration, bool) {
	if p.win.n == 0 {
		return 0, false
	}
	rank := durationRank(p.params.DurationQuantile(), p.params.Confidence)
	steps, _, ok := windowBoundScan(&p.win, levelTick(bid), rank)
	if !ok {
		return 0, false
	}
	return time.Duration(steps) * p.step, true
}

// Table builds the service-style bid table at the current moment: the
// minimum bid, then 5% increments up to 4x the minimum (§3.3). Each
// guarantee is read off the advise walk (Surface), here cut short at the
// table's last bid, so a table costs one duration scan per distinct
// retained price its bids up to the walk's ceiling reach. Durations are
// monotone non-decreasing in the bid.
func (p *Predictor) Table() (BidTable, bool) {
	s, ok := p.walk(tableSpanMult, 0)
	if !ok {
		return BidTable{}, false
	}
	return s.Table(p.Now()), true
}

// ceiling is the highest bid the advise walk reaches: one tick above 1.25x
// maxSeen, the highest retained price (a bid no observed market movement
// has ever reached), and never below the minimum bid bid0.
func ceiling(maxSeen, bid0 float64) float64 {
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
// Advise scans the history once per distinct retained price the walk
// passes; the service answers the same question from a precomputed
// AdviseSurface instead.
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
