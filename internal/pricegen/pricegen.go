// Package pricegen synthesizes Spot market price histories.
//
// The paper's experiments consumed 18 months of recorded EC2 price data
// that no longer exists in usable form (the bidding market was retired in
// late 2017), so this package reproduces the statistical anatomy that the
// paper and its cited market study (Ben-Yehuda et al.) describe: piecewise-
// stationary AR(1) dynamics in log-price, abrupt regime change points,
// heavy-tailed spikes — occasionally far above the On-demand price — daily
// demand cycles, and per-combo personalities ranging from nearly flat to
// violently spiky. Named combos the paper discusses are reproduced
// specifically:
//
//   - cg1.4xlarge in us-east-1 trades permanently above its On-demand
//     price (§4.1.2's "never sufficient" example),
//   - c4.4xlarge in us-east-1e spans almost two orders of magnitude
//     ($0.13 to $9.50, §4.4),
//   - m1.large in us-west-2c stays in the $0.02–$0.10 band against a
//     $0.175 On-demand price (§4.4),
//   - c4.large in us-east-1 is calm (Figure 2's zero-failure experiment),
//   - c3.2xlarge in us-west-1 is volatile (Figure 3's four-failure week).
//
// Everything is deterministic given the generator seed.
package pricegen

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drafts-go/drafts/internal/faults"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/stats"
)

// Archetype labels a market personality.
type Archetype int

const (
	// Calm: low-volatility AR(1) around a deep discount; rare, small spikes.
	Calm Archetype = iota
	// Volatile: wide AR(1) band with regime shifts and regular excursions
	// above the On-demand price.
	Volatile
	// Spiky: calm base punctuated by rare, huge spikes (up to ~12x OD).
	Spiky
	// Hostile: the market price sits permanently just above On-demand.
	Hostile
	// Diurnal: calm base modulated by a strong daily demand cycle.
	Diurnal
	// Cheap: very low, very stable prices far below On-demand.
	Cheap
)

var archetypeNames = map[Archetype]string{
	Calm: "calm", Volatile: "volatile", Spiky: "spiky",
	Hostile: "hostile", Diurnal: "diurnal", Cheap: "cheap",
}

func (a Archetype) String() string {
	if s, ok := archetypeNames[a]; ok {
		return s
	}
	return fmt.Sprintf("archetype(%d)", int(a))
}

// params holds the generative model's knobs, all relative to the combo's
// On-demand price so every instance type scales sensibly.
//
// The value structure matters as much as the levels. Recorded 2016 Spot
// histories were price *ladders*: the market revisited the same exact
// prices for weeks (big probability atoms), bounded within a band, with
// rare hours-long excursions above the band — some to recurring levels,
// some (on the spikiest markets) to novel record highs. That structure is
// what makes the paper's Empirical-CDF baseline mostly work (its in-sample
// 99th percentile usually lands on a recurring rung that a one-tick
// premium clears) and what makes the Gaussian AR(1) quantile safe on calm
// markets (a bounded band's maximum sits below mean + 2.33 sigma) yet
// hopeless against heavy excursion tails. The generator therefore walks a
// bounded rung ladder and layers archetype-specific excursions on top.
type params struct {
	floorFrac  float64 // bottom rung as a fraction of OD
	bandRungs  int     // rungs in the base band
	rungStep   float64 // multiplicative rung spacing
	stayProb   float64 // per-step probability the walk holds its rung
	driftEvery float64 // mean steps between preferred-rung changes
	diurnal    int     // afternoon preference shift, in rungs
	pExc       float64 // per-step probability of starting an excursion
	excDur     float64 // mean excursion length in steps
	excRungs   int     // recurring excursion rungs above the band (0 = continuous)
	excStep    float64 // multiplicative excursion rung spacing
	excMagMu   float64 // lognormal mu of continuous excursion multipliers
	excMagSd   float64 // lognormal sigma of continuous excursion multipliers
	maxFrac    float64 // hard cap as a multiple of OD
	peakHours  bool    // daily demand peak pins the target to the band top
}

func paramsFor(a Archetype) params {
	switch a {
	case Calm:
		return params{floorFrac: 0.15, bandRungs: 12, rungStep: 0.03,
			stayProb: 0.70, driftEvery: 3 * 288, diurnal: 1,
			maxFrac: 0.9, peakHours: true}
	case Volatile:
		return params{floorFrac: 0.20, bandRungs: 12, rungStep: 0.04,
			stayProb: 0.60, driftEvery: 288, diurnal: 1,
			pExc: 1.0 / 900, excDur: 90, excRungs: 3, excStep: 0.72,
			maxFrac: 2.5, peakHours: true}
	case Spiky:
		return params{floorFrac: 0.15, bandRungs: 10, rungStep: 0.03,
			stayProb: 0.70, driftEvery: 2 * 288, diurnal: 0,
			pExc: 1.0 / 1800, excDur: 60,
			excMagMu: math.Log(8), excMagSd: 0.9,
			maxFrac: 12, peakHours: true}
	case Hostile:
		return params{floorFrac: 1.0, maxFrac: 1.4}
	case Diurnal:
		return params{floorFrac: 0.18, bandRungs: 20, rungStep: 0.04,
			stayProb: 0.45, driftEvery: 6 * 288, diurnal: 12,
			maxFrac: 0.95, peakHours: true}
	case Cheap:
		return params{floorFrac: 0.10, bandRungs: 10, rungStep: 0.03,
			stayProb: 0.75, driftEvery: 4 * 288, diurnal: 0,
			maxFrac: 0.55, peakHours: true}
	default:
		return paramsFor(Calm)
	}
}

// ArchetypeFor deterministically assigns a personality to a combo. Named
// combos from the paper receive their documented behaviour; the rest are
// distributed by hash so that roughly 37% of combos (volatile + spiky +
// hostile) episodically exceed the On-demand price — the fraction for
// which the paper found the On-demand bid insufficient (Table 1).
func ArchetypeFor(c spot.Combo) Archetype {
	switch {
	case c.Type == "cg1.4xlarge":
		return Hostile
	case c.Type == "c4.4xlarge" && c.Zone == "us-east-1e":
		return Spiky
	case c.Type == "m1.large" && c.Zone == "us-west-2c":
		return Cheap
	case c.Type == "c4.large" && c.Zone.Region() == spot.USEast1:
		return Calm
	case c.Type == "c3.2xlarge" && c.Zone.Region() == spot.USWest1:
		return Volatile
	case c.Type == "c3.4xlarge" && c.Zone == "us-east-1a":
		// The Figure-4 market: its bid-duration curve climbs visibly with
		// the bid. (us-east-1a is not visible to the modelled account, so
		// this does not perturb the 452-combo backtest population.)
		return Volatile
	}
	h := fnv.New32a()
	h.Write([]byte(c.String()))
	switch v := h.Sum32() % 100; {
	case v < 38:
		return Calm
	case v < 68: // 30% volatile
		return Volatile
	case v < 73: // 5% spiky
		return Spiky
	case v < 75: // 2% hostile
		return Hostile
	case v < 90: // 15% diurnal
		return Diurnal
	default: // 10% cheap
		return Cheap
	}
}

// Generator produces price series deterministically from a master seed.
type Generator struct {
	Seed int64
	// Faults optionally injects failures at the "pricegen.continue"
	// operation point — the live extension path a refresh outage chaos
	// test interrupts. nil disables injection.
	Faults *faults.Set
}

// comboSeed derives the per-combo RNG seed.
func comboSeed(master int64, c spot.Combo) int64 {
	h := fnv.New64a()
	h.Write([]byte(c.String()))
	return stats.ForkSeed(master, int64(h.Sum64()))
}

// Series generates n grid steps of market price for combo c starting at
// start.
func (g Generator) Series(c spot.Combo, start time.Time, n int) (*history.Series, error) {
	cur, err := newCursor(g.Seed, c, start)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("pricegen: non-positive length %d", n)
	}
	s := history.NewSeries(start)
	cur.emit(s, n)
	return s, nil
}

// minutesPerDay sizes the per-archetype target-shift tables.
const minutesPerDay = 24 * 60

// targetShift[a][m] is how many rungs above its preferred rung archetype
// a's walk aims at minute-of-day m. Diurnal demand raises the target in the
// afternoon; the daytime peak (11:00-17:00) shifts it by a whole band, which
// pins it to the band ceiling — the recurring business-hours high that real
// Spot ladders showed, which keeps the band top prominent in every
// multi-week sample. The table is built once, so a walk step costs a clock
// decomposition and a lookup, not a cosine.
var targetShift = func() (t [Cheap + 1][minutesPerDay]int8) {
	for a := range t {
		p := paramsFor(Archetype(a))
		for m := range t[a] {
			h := float64(m/60) + float64(m%60)/60
			shift := 0
			if p.diurnal > 0 {
				shift = int(float64(p.diurnal) * (1 + math.Cos(2*math.Pi*(h-15)/24)) / 2)
			}
			if p.peakHours && h >= 11 && h < 17 {
				shift = p.bandRungs
			}
			t[a][m] = int8(shift)
		}
	}
	return t
}()

// cursor is one combo's price walk paused between two grid steps: the RNG,
// every piece of walk state, and the grid index of the next step. The walk
// is a sequential recurrence, so the price at index i exists only after
// steps 0..i-1 have drawn from the RNG; a cursor makes that prefix a cost
// paid once rather than on every extension.
type cursor struct {
	rng      *stats.RNG
	p        params
	start    time.Time
	pos      int // grid index of the next step
	hostile  bool
	od       float64
	maxPrice float64
	floor    float64              // Hostile's floor: one tick above On-demand
	rungs    []float64            // the band's rung prices, floor·(1+rungStep)^k
	shift    *[minutesPerDay]int8 // the archetype's row of targetShift

	k, pref  int     // current and preferred rung
	excLeft  int     // steps left in the running excursion
	excPrice float64 // the running excursion's level
	x        float64 // Hostile's AR(1) state
}

// newCursor positions a fresh walk for combo c at grid index 0.
func newCursor(seed int64, c spot.Combo, start time.Time) (*cursor, error) {
	od, err := spot.ODPrice(c.Type, c.Zone.Region())
	if err != nil {
		return nil, err
	}
	a := ArchetypeFor(c)
	p := paramsFor(a)
	cur := &cursor{
		rng:      stats.NewRNG(comboSeed(seed, c)),
		p:        p,
		start:    start,
		hostile:  a == Hostile,
		od:       od,
		maxPrice: p.maxFrac * od,
		floor:    spot.NextTickAbove(od),
		rungs:    make([]float64, p.bandRungs),
		shift:    &targetShift[a],
		k:        p.bandRungs / 2,
		pref:     p.bandRungs / 2,
	}
	bottom := p.floorFrac * od
	for k := range cur.rungs {
		cur.rungs[k] = bottom * math.Pow(1+p.rungStep, float64(k))
	}
	return cur, nil
}

// emit appends the next n prices to s.
func (c *cursor) emit(s *history.Series, n int) {
	for ; n > 0; n-- {
		s.Append(c.step())
	}
}

// skip advances the walk n steps, discarding the prices.
func (c *cursor) skip(n int) {
	for ; n > 0; n-- {
		c.step()
	}
}

// step returns the price at grid index c.pos and advances the walk past it.
func (c *cursor) step() float64 {
	i := c.pos
	c.pos++
	if c.hostile {
		return c.hostileStep()
	}
	p := &c.p
	// Slow preference drift: demand regimes lasting days.
	if p.driftEvery > 0 && c.rng.Bernoulli(1/p.driftEvery) {
		c.pref = c.rng.Intn(p.bandRungs)
	}
	hour, min, _ := c.start.Add(time.Duration(i) * spot.UpdatePeriod).Clock()
	eff := c.pref + int(c.shift[hour*60+min])
	if eff >= p.bandRungs {
		eff = p.bandRungs - 1
	}
	// Biased rung walk, reflected at the band edges.
	if !c.rng.Bernoulli(p.stayProb) {
		pUp := 0.5
		switch {
		case eff > c.k:
			pUp = 0.75
		case eff < c.k:
			pUp = 0.25
		}
		if c.rng.Bernoulli(pUp) {
			c.k++
		} else {
			c.k--
		}
		if c.k < 0 {
			c.k = 0
		}
		if c.k >= p.bandRungs {
			c.k = p.bandRungs - 1
		}
	}

	price := c.rungs[c.k]
	if c.excLeft > 0 {
		c.excLeft--
		if c.excPrice > price {
			price = c.excPrice
		}
	} else if p.pExc > 0 && c.rng.Bernoulli(p.pExc) {
		c.excPrice = c.excLevel()
		c.excLeft = 1 + int(c.rng.Exponential(p.excDur-1))
		if c.excPrice > price {
			price = c.excPrice
		}
	}
	return spot.RoundToTick(clamp(price, spot.PriceTick, c.maxPrice))
}

// excLevel draws the price an excursion above the band clears at.
func (c *cursor) excLevel() float64 {
	p := &c.p
	bandTop := c.rungs[p.bandRungs-1]
	if p.excRungs > 0 {
		// Recurring excursion ladder: the market clears at the same
		// handful of elevated levels again and again.
		r := 1 + c.rng.Intn(p.excRungs)
		return bandTop * math.Pow(1+p.excStep, float64(r))
	}
	// Continuous heavy-tailed magnitudes: every big excursion sets a
	// novel level (the spiky archetype).
	mag := c.rng.LogNormal(p.excMagMu, p.excMagSd)
	if mag < 1.3 {
		mag = 1.3
	}
	return bandTop * mag
}

// hostileStep is the Hostile walk: a series pinned at least one tick above
// On-demand, reproducing the cg1.4xlarge behaviour — the lowest observed
// price in the paper was exactly one tenth of a cent above the On-demand
// price.
func (c *cursor) hostileStep() float64 {
	c.x = 0.9*c.x + c.rng.Normal(0, 0.004)
	price := c.od * (1.004 + math.Abs(c.x))
	if price < c.floor {
		price = c.floor
	}
	if price > c.maxPrice {
		price = c.maxPrice
	}
	price = spot.RoundToTick(price)
	if price <= c.od {
		price = c.floor
	}
	return price
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Populate generates series for all given combos in parallel and installs
// them into the store. The work is embarrassingly parallel: one goroutine
// per CPU consumes combos from a shared channel.
func (g Generator) Populate(st *history.Store, combos []spot.Combo, start time.Time, n int) error {
	work := make(chan spot.Combo)
	errCh := make(chan error, 1)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				if failed.Load() {
					continue // keep draining so the producer never blocks
				}
				s, err := g.Series(c, start, n)
				if err == nil {
					err = st.Put(c, s)
				}
				if err != nil {
					failed.Store(true)
					select {
					case errCh <- err:
					default:
					}
				}
			}
		}()
	}
	for _, c := range combos {
		work <- c
	}
	close(work)
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// memoCap bounds the cursors Continue keeps, at about 5 KB each (mostly
// the RNG's state): twice the 452-combo catalog, so feeding the whole
// catalog never evicts its own cursors. On overflow the memo is cleared
// and refills as the feeds come back.
const memoCap = 2 * 452

// memoKey names one walk: the generator seed, the combo and the grid start.
// The start keeps its Location, which the walk's clock reads, and loses any
// monotonic reading (Round(0)), which == would otherwise compare.
type memoKey struct {
	seed  int64
	combo spot.Combo
	start time.Time
}

// memo holds the cursors Continue paused. It is package-level because
// feeds build a fresh Generator per cycle; like a sync.Pool it is a cache
// only, so no result depends on what it holds. A caller takes its cursor
// out while advancing it and puts it back after, so concurrent calls for
// one walk never share a cursor: the one that finds the slot empty
// rebuilds its own.
var memo = struct {
	sync.Mutex
	m map[memoKey]*cursor
}{m: make(map[memoKey]*cursor)}

func takeCursor(k memoKey) *cursor {
	memo.Lock()
	defer memo.Unlock()
	cur := memo.m[k]
	delete(memo.m, k)
	return cur
}

func putCursor(k memoKey, cur *cursor) {
	memo.Lock()
	defer memo.Unlock()
	if len(memo.m) >= memoCap {
		clear(memo.m)
	}
	memo.m[k] = cur
}

// Continue returns grid steps [have, have+n) of c's deterministic series
// from start: the ticks a live market would have announced since the last
// one the caller holds. The prices are exactly those Series(c, start,
// have+n) would end with, so a restarted daemon extends a WAL-recovered
// history without forking the market's trajectory. Continue resumes the
// cursor its last call for (seed, c, start) left behind: a feed that asks
// for the ticks after the ones it was last given pays for the new ticks
// only, a later have skips forward, and an earlier have rebuilds the walk
// from index 0.
func (g Generator) Continue(c spot.Combo, start time.Time, have, n int) (*history.Series, error) {
	if err := g.Faults.Check("pricegen.continue"); err != nil {
		return nil, fmt.Errorf("pricegen: continuing %v: %w", c, err)
	}
	if have < 0 {
		return nil, fmt.Errorf("pricegen: negative prefix length %d", have)
	}
	if n <= 0 {
		return nil, fmt.Errorf("pricegen: non-positive extension length %d", n)
	}
	key := memoKey{seed: g.Seed, combo: c, start: start.Round(0)}
	cur := takeCursor(key)
	if cur == nil || cur.pos > have {
		var err error
		if cur, err = newCursor(g.Seed, c, key.start); err != nil {
			return nil, err
		}
	}
	cur.skip(have - cur.pos)
	s := history.NewSeries(start.Add(time.Duration(have) * spot.UpdatePeriod))
	s.Prices = make([]float64, 0, n)
	cur.emit(s, n)
	putCursor(key, cur)
	return s, nil
}
