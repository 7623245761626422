// Package market simulates the pre-2018 EC2 Spot market mechanism the
// paper describes in §2.1: for every (zone, instance type) combination the
// provider holds a hidden supply of capacity, users submit requests
// carrying maximum bids, and the provider periodically clears the market —
// it sorts active bids by value, allocates capacity in descending order
// (accounting for request size), and sets the market price to the lowest
// bid that corresponds to a taken resource. Requests whose bid falls below
// the new market price are terminated; a bid exactly equal to the market
// price "may be terminated or may be left running".
//
// The simulator reprices on the 5-minute period the paper observes, evolves
// its hidden supply with diurnal demand cycles, random drift and abrupt
// supply shocks (which produce the price spikes the forecaster must
// survive), and emits the resulting price series through the same
// history.Series type the rest of the repository consumes. Instrumented
// "user" instances — the ones experiments launch — go through exactly the
// same book as the synthetic background population.
package market

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/stats"
)

// Config tunes a single combo's market. The zero value is replaced by
// defaults in New.
type Config struct {
	// BaseCapacity is the nominal hidden supply in capacity units.
	BaseCapacity int
	// ReserveFrac sets the price floor as a fraction of On-demand: with
	// slack supply the market clears at the reserve price.
	ReserveFrac float64
	// ArrivalRate is the mean number of background requests per period.
	ArrivalRate float64
	// MeanLifetime is the mean background request lifetime.
	MeanLifetime time.Duration
	// ShockProb is the per-period probability of a supply shock (capacity
	// loss), the mechanism behind price spikes.
	ShockProb float64
	// DiurnalAmp scales the daily demand swing (0..1).
	DiurnalAmp float64
	// TieTerminationProb is the chance an instance whose bid exactly
	// equals the new market price is terminated anyway.
	TieTerminationProb float64
}

func (c Config) withDefaults() Config {
	if c.BaseCapacity == 0 {
		// Comfortably above the steady-state background demand (~630
		// units), so the market normally clears at the reserve price;
		// the diurnal demand swing and supply shocks push it into the
		// bid book episodically.
		c.BaseCapacity = 700
	}
	if c.ReserveFrac == 0 {
		c.ReserveFrac = 0.10
	}
	if c.ArrivalRate == 0 {
		c.ArrivalRate = 18
	}
	if c.MeanLifetime == 0 {
		c.MeanLifetime = 2 * time.Hour
	}
	if c.ShockProb == 0 {
		c.ShockProb = 0.002
	}
	if c.DiurnalAmp == 0 {
		c.DiurnalAmp = 0.25
	}
	if c.TieTerminationProb == 0 {
		c.TieTerminationProb = 0.5
	}
	return c
}

// Instance is a user-submitted request being tracked by an experiment.
type Instance struct {
	ID         int
	Bid        float64
	Launched   time.Time
	Terminated bool
	// ByProvider is true when the market price reached the bid; false when
	// the user shut the instance down.
	ByProvider   bool
	TerminatedAt time.Time
}

// order is one entry in the book, background or instrumented.
type order struct {
	bid     float64
	size    int
	expires time.Time // background orders self-terminate at this time
	inst    *Instance // non-nil for instrumented user instances
}

// Market simulates one combo's Spot market.
type Market struct {
	Combo spot.Combo

	cfg      Config
	od       float64
	reserve  float64
	rng      *stats.RNG
	clock    time.Time
	capacity float64 // smoothed random-walk component of supply
	shockEnd time.Time
	shockCut float64 // fraction of capacity removed while shocked

	book   []*order
	price  float64
	series *history.Series
	nextID int
}

// New builds a market for combo c starting at start. The first clearing
// happens on construction so Price is immediately meaningful.
func New(c spot.Combo, cfg Config, start time.Time, seed int64) (*Market, error) {
	od, err := spot.ODPrice(c.Type, c.Zone.Region())
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	m := &Market{
		Combo:    c,
		cfg:      cfg,
		od:       od,
		reserve:  spot.RoundToTick(cfg.ReserveFrac * od),
		rng:      stats.NewRNG(seed),
		clock:    start,
		capacity: float64(cfg.BaseCapacity),
		series:   history.NewSeries(start),
	}
	if m.reserve < spot.PriceTick {
		m.reserve = spot.PriceTick
	}
	// Prime the book so the opening price is not degenerate.
	for i := 0; i < int(cfg.ArrivalRate)*6; i++ {
		m.book = append(m.book, m.newBackgroundOrder())
	}
	m.clear()
	m.series.Append(m.price)
	return m, nil
}

// Now returns the market clock (the time of the latest clearing).
func (m *Market) Now() time.Time { return m.clock }

// Price returns the current market price.
func (m *Market) Price() float64 { return m.price }

// Series returns the emitted price history (shared; do not mutate).
func (m *Market) Series() *history.Series { return m.series }

// Step advances the market by one repricing period: background arrivals
// and departures, supply evolution, clearing, and price announcement.
func (m *Market) Step() {
	mRepricings.Load().Inc()
	m.clock = m.clock.Add(spot.UpdatePeriod)

	// Background departures (user-terminated requests).
	alive := m.book[:0]
	for _, o := range m.book {
		if o.inst == nil && !o.expires.After(m.clock) {
			continue
		}
		alive = append(alive, o)
	}
	m.book = alive

	// Background arrivals.
	n := m.rng.Poisson(m.cfg.ArrivalRate)
	for i := 0; i < n; i++ {
		m.book = append(m.book, m.newBackgroundOrder())
	}

	// Supply: slow mean-reverting drift plus occasional shocks.
	base := float64(m.cfg.BaseCapacity)
	m.capacity += 0.02*(base-m.capacity) + m.rng.Normal(0, 0.01*base)
	if m.capacity < 0.2*base {
		m.capacity = 0.2 * base
	}
	if m.clock.After(m.shockEnd) && m.rng.Bernoulli(m.cfg.ShockProb) {
		m.shockCut = m.rng.UniformRange(0.35, 0.75)
		m.shockEnd = m.clock.Add(time.Duration(1+m.rng.Exponential(2)) * spot.UpdatePeriod)
	}

	m.clear()
	m.series.Append(m.price)
}

// effectiveCapacity folds the diurnal demand cycle and any active shock
// into the capacity available to the Spot pool. (Diurnal demand for
// reliable instances shrinks what is left over for Spot in the afternoon.)
func (m *Market) effectiveCapacity() int {
	h := float64(m.clock.Hour()) + float64(m.clock.Minute())/60
	diurnal := 1 - m.cfg.DiurnalAmp/2*(1+math.Cos(2*math.Pi*(h-15)/24))
	cap := m.capacity * diurnal
	if m.clock.Before(m.shockEnd) {
		cap *= 1 - m.shockCut
	}
	if cap < 1 {
		cap = 1
	}
	return int(cap)
}

// clear runs the §2.1 market-clearing mechanism.
func (m *Market) clear() {
	mClearings.Load().Inc()
	capacity := m.effectiveCapacity()
	sort.SliceStable(m.book, func(i, j int) bool { return m.book[i].bid > m.book[j].bid })

	taken := 0
	price := m.reserve
	cut := len(m.book) // index of the first rejected order
	for i, o := range m.book {
		if taken+o.size > capacity {
			cut = i
			break
		}
		taken += o.size
		price = o.bid
	}
	if cut == len(m.book) && taken < capacity {
		// Supply not exhausted: the market clears at the reserve price.
		price = m.reserve
	}
	if price < m.reserve {
		price = m.reserve
	}
	m.price = spot.RoundToTick(price)

	// Reject everything past the cut, and resolve ties at the price.
	kept := m.book[:0]
	for i, o := range m.book {
		rejected := i >= cut
		if !rejected && spot.SamePrice(o.bid, m.price) && o.inst != nil {
			// An accepted instance sitting exactly at the market price may
			// still be terminated (§2.1).
			rejected = m.rng.Bernoulli(m.cfg.TieTerminationProb)
		}
		if rejected {
			if o.inst != nil {
				mTerminations.Load().Inc()
				o.inst.Terminated = true
				o.inst.ByProvider = true
				o.inst.TerminatedAt = m.clock
			}
			continue
		}
		kept = append(kept, o)
	}
	m.book = kept
}

func (m *Market) newBackgroundOrder() *order {
	// Bid mixture: discount seekers, moderates, safety bidders, and a thin
	// tail bidding many multiples of On-demand.
	var frac float64
	switch v := m.rng.Float64(); {
	case v < 0.50:
		frac = m.rng.UniformRange(0.12, 0.40)
	case v < 0.80:
		frac = m.rng.UniformRange(0.40, 1.00)
	case v < 0.95:
		frac = m.rng.UniformRange(1.00, 2.00)
	default:
		frac = m.rng.UniformRange(2.00, 10.0)
	}
	bid := spot.RoundToTick(frac * m.od)
	if bid < m.reserve {
		bid = m.reserve
	}
	size := 1
	if m.rng.Bernoulli(0.3) {
		size = 1 + m.rng.Intn(4)
	}
	life := time.Duration(m.rng.Exponential(float64(m.cfg.MeanLifetime)))
	return &order{bid: bid, size: size, expires: m.clock.Add(life)}
}

// Submit places an instrumented request with the given maximum bid. Per
// §2, only requests whose bid exceeds the current market price are
// accepted; otherwise the launch fails (this is the paper's third failure
// mode in Figure 3).
func (m *Market) Submit(bid float64) (*Instance, error) {
	mSubmissions.Load().Inc()
	bid = spot.RoundToTick(bid)
	if bid <= m.price {
		return nil, fmt.Errorf("market: bid %.4f not above market price %.4f for %v", bid, m.price, m.Combo)
	}
	m.nextID++
	inst := &Instance{ID: m.nextID, Bid: bid, Launched: m.clock}
	m.book = append(m.book, &order{bid: bid, size: 1, inst: inst})
	return inst, nil
}

// Terminate performs a user-initiated shutdown of an instrumented
// instance. Terminating an already-terminated instance is a no-op.
func (m *Market) Terminate(inst *Instance) {
	if inst.Terminated {
		return
	}
	for i, o := range m.book {
		if o.inst == inst {
			m.book = append(m.book[:i], m.book[i+1:]...)
			break
		}
	}
	inst.Terminated = true
	inst.ByProvider = false
	inst.TerminatedAt = m.clock
}

// Exchange steps a set of markets (e.g. every zone of a region for one
// instance type) under a common clock.
type Exchange struct {
	Markets []*Market
}

// NewExchange builds one market per combo with seeds forked from seed.
func NewExchange(combos []spot.Combo, cfg Config, start time.Time, seed int64) (*Exchange, error) {
	ex := &Exchange{}
	for i, c := range combos {
		mk, err := New(c, cfg, start, stats.ForkSeed(seed, int64(i)))
		if err != nil {
			return nil, err
		}
		ex.Markets = append(ex.Markets, mk)
	}
	return ex, nil
}

// Step advances every market one period.
func (ex *Exchange) Step() {
	for _, m := range ex.Markets {
		m.Step()
	}
}

// Now returns the common clock.
func (ex *Exchange) Now() time.Time {
	if len(ex.Markets) == 0 {
		return time.Time{}
	}
	return ex.Markets[0].Now()
}
