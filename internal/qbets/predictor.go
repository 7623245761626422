package qbets

import (
	"fmt"
	"math"

	"github.com/drafts-go/drafts/internal/stats"
)

// Kind selects which side of the quantile the predictor bounds.
type Kind int

const (
	// UpperBound predicts a value that exceeds the q-th quantile of the
	// next observation with confidence c. DrAFTS uses this on the price
	// series: a bid at the bound survives the next market price with
	// probability at least q (given the confidence event).
	UpperBound Kind = iota
	// LowerBound predicts a value below the q-th quantile with confidence
	// c. DrAFTS uses this on the bid-survival duration series with a small
	// q: the next duration is at least the bound with probability >= 1-q.
	LowerBound
)

func (k Kind) String() string {
	if k == UpperBound {
		return "upper"
	}
	return "lower"
}

// Config parameterizes a Predictor. The zero value is not valid: New
// fills the zero-valued tuning fields with the Default* constants and
// requires Quantile, Confidence and NewStore.
type Config struct {
	// Kind selects an upper or lower quantile bound.
	Kind Kind
	// Quantile q in (0,1) of the observation distribution to bound.
	Quantile float64
	// Confidence c in (0,1) of the bound (the paper uses 0.99 throughout).
	Confidence float64
	// ChangePointWindow is the trailing-window length W used by the two
	// change-point detectors and the amount of history retained after a
	// change point fires. Default 60 (five hours of 5-minute prices).
	ChangePointWindow int
	// ChangePointAlpha is the significance level of the change-point
	// tests. Default 0.005.
	ChangePointAlpha float64
	// MaxHistory caps the number of retained observations (0 = unlimited).
	// DrAFTS feeds three months of 5-minute data (~26k points).
	MaxHistory int
	// AutocorrEvery controls how often (in observations) the lag-1
	// autocorrelation is re-estimated for the effective-sample-size
	// correction. Zero selects the default, 128; a negative value or
	// NoAutocorr disables the correction.
	AutocorrEvery int
	// NoAutocorr disables the autocorrelation correction even with the
	// default AutocorrEvery (used by the ablation benchmarks).
	NoAutocorr bool
	// NoChangePoint disables both change-point detectors, so the predictor
	// treats the whole retained history as stationary (used by the
	// ablation benchmarks and by tests that need identical histories).
	NoChangePoint bool
	// NewStore constructs the order-statistic backend (LevelStore or
	// FenwickStore). It has no default.
	NewStore func() OrderStats
}

// Default parameter values (documented above).
const (
	DefaultChangePointWindow = 60
	DefaultChangePointAlpha  = 0.005
	DefaultAutocorrEvery     = 128
)

// autocorrSpan caps how much trailing history feeds the lag-1
// autocorrelation estimate; beyond a few thousand points the estimate is
// stable and the O(n) recomputation would dominate the predictor's cost.
const autocorrSpan = 4096

func (c Config) withDefaults() (Config, error) {
	if !(c.Quantile > 0 && c.Quantile < 1) {
		return c, fmt.Errorf("qbets: quantile %v outside (0,1)", c.Quantile)
	}
	if !(c.Confidence > 0 && c.Confidence < 1) {
		return c, fmt.Errorf("qbets: confidence %v outside (0,1)", c.Confidence)
	}
	if c.ChangePointWindow == 0 {
		c.ChangePointWindow = DefaultChangePointWindow
	}
	if c.ChangePointWindow < 0 {
		return c, fmt.Errorf("qbets: negative change-point window")
	}
	if c.ChangePointAlpha == 0 {
		c.ChangePointAlpha = DefaultChangePointAlpha
	}
	if c.ChangePointAlpha < 0 || c.ChangePointAlpha >= 1 {
		return c, fmt.Errorf("qbets: change-point alpha %v outside [0,1)", c.ChangePointAlpha)
	}
	if c.MaxHistory < 0 {
		return c, fmt.Errorf("qbets: negative max history")
	}
	if c.AutocorrEvery == 0 {
		c.AutocorrEvery = DefaultAutocorrEvery
	}
	if c.NoAutocorr {
		c.AutocorrEvery = -1
	}
	if c.NewStore == nil {
		return c, fmt.Errorf("qbets: no order-statistic store (Config.NewStore is nil)")
	}
	return c, nil
}

// Predictor is an online QBETS forecaster. Feed observations in time order
// with Observe; read the current bound prediction (which applies to the
// next, unseen observation) with Bound. Not safe for concurrent use.
type Predictor struct {
	cfg Config

	store OrderStats
	grid  *LevelStore // store, when it is a LevelStore, whose grid bounds the values it holds
	chron []float64   // retained history, oldest first, starting at head
	head  int

	violRing  []bool // trailing violation outcomes for change-point test
	violIdx   int
	violFill  int
	violCount int

	sinceRho int
	rho      float64 // latest lag-1 autocorrelation estimate (NaN = none)

	sinceMedianTest int
	changePoints    int // total change points detected, kept in snapshots

	// pendingFlush counts down to the post-change-point flush: the window
	// retained at fire time straddles the regime shift, so W observations
	// later everything predating the fire is dropped, leaving a clean
	// post-shift history. 0 means no flush is scheduled.
	pendingFlush int

	// rank and cp are the process-wide tables of the binomial decisions
	// for this configuration: the bound's rank at each (effective) sample
	// size and the change-point tests' verdict at each count. They hold
	// pure functions of the configuration, so Clone shares them and Save
	// and Load skip them.
	rank *stats.RankTable
	cp   *changePoints
}

// New constructs a Predictor, applying defaults and validating the config.
func New(cfg Config) (*Predictor, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// A lower bound on the q-quantile takes the rank of an upper bound on
	// the (1-q)-quantile (the symmetry x -> -x). A violation lands beyond the
	// target quantile: above it (probability 1-q) for an upper bound,
	// below it (probability q) for a lower one.
	q, viol := cfg.Quantile, 1-cfg.Quantile
	if cfg.Kind == LowerBound {
		q, viol = 1-cfg.Quantile, cfg.Quantile
	}
	p := &Predictor{
		cfg:      cfg,
		store:    cfg.NewStore(),
		violRing: make([]bool, cfg.ChangePointWindow),
		rho:      math.NaN(),
		rank:     stats.RankTableFor(q, cfg.Confidence),
		cp:       changePointTables(cfg.ChangePointWindow, viol, cfg.ChangePointAlpha),
	}
	p.grid, _ = p.store.(*LevelStore)
	return p, nil
}

// Len returns the number of retained observations.
func (p *Predictor) Len() int { return p.store.Len() }

// Observe feeds the next observation. It first scores the observation
// against the current bound (feeding the change-point detector), then
// inserts it into the history. A non-finite value, or one a LevelStore
// cannot hold (negative, or beyond math.MaxInt32 ticks), is dropped.
func (p *Predictor) Observe(v float64) {
	if p.observe(v) {
		mObservations.Load().Inc()
	}
}

// ObserveAll feeds vs in order, exactly as one Observe per value would,
// and counts the accepted values with one counter Add for the call.
func (p *Predictor) ObserveAll(vs []float64) {
	accepted := 0
	for _, v := range vs {
		if p.observe(v) {
			accepted++
		}
	}
	mObservations.Load().Add(uint64(accepted))
}

// observe is Observe without the counter: it reports whether v was
// accepted.
func (p *Predictor) observe(v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) || (p.grid != nil && !p.grid.Places(v)) {
		// Market data never contains such prices; drop defensively.
		return false
	}
	if !p.cfg.NoChangePoint {
		if bound, ok := p.Bound(); ok {
			viol := (p.cfg.Kind == UpperBound && v > bound) ||
				(p.cfg.Kind == LowerBound && v < bound)
			p.pushViolation(viol)
			if p.violFill == len(p.violRing) && p.exceedanceShift() {
				p.truncate()
			}
		}
	}

	p.store.Insert(v)
	p.chron = append(p.chron, v)
	if p.cfg.MaxHistory > 0 {
		for p.store.Len() > p.cfg.MaxHistory {
			p.evictOldest()
		}
	}

	if p.pendingFlush > 0 {
		p.pendingFlush--
		if p.pendingFlush == 0 {
			p.flushStale()
		}
	}

	if p.cfg.AutocorrEvery > 0 {
		p.sinceRho++
		if p.sinceRho >= p.cfg.AutocorrEvery && p.histLen() >= 8 {
			p.sinceRho = 0
			p.rho = p.estimateRho()
		}
	}

	p.sinceMedianTest++
	w := p.cfg.ChangePointWindow
	if !p.cfg.NoChangePoint && w > 0 && p.sinceMedianTest >= w && p.histLen() >= 2*w {
		p.sinceMedianTest = 0
		if p.medianShift() {
			p.truncate()
		}
	}
	return true
}

// Bound returns the current quantile confidence bound, which is QBETS's
// prediction for the next observation. ok is false only when no
// observation has been seen at all.
//
// During warm-up — when the (effective) history is too short for the
// binomial bound to exist at the requested confidence — Bound falls back
// to the sample extreme (maximum for an upper bound, minimum for a lower
// bound), the most conservative prediction the data supports.
//
// Bound writes nothing: with this package's stores, concurrent Bound
// calls need no synchronisation among themselves, only against Observe.
func (p *Predictor) Bound() (float64, bool) {
	n := p.store.Len()
	if n == 0 {
		return 0, false
	}
	nEff := p.effectiveLen(n)
	k, ok := p.rank.Index(nEff)
	if p.cfg.Kind == UpperBound {
		if !ok {
			return p.store.Select(n), true // warm-up: sample maximum
		}
		k = scaleRank(k, n, nEff)
		return p.store.Select(n - k + 1), true
	}
	if !ok {
		return p.store.Select(1), true // warm-up: sample minimum
	}
	k = scaleRank(k, n, nEff)
	return p.store.Select(k), true
}

// effectiveLen is the sample size the rank is chosen for: the n retained
// observations, shrunk for their lag-1 autocorrelation once it is known.
func (p *Predictor) effectiveLen(n int) int {
	if p.cfg.AutocorrEvery > 0 && !math.IsNaN(p.rho) {
		return stats.EffectiveSampleSize(n, p.rho)
	}
	return n
}

// scaleRank maps a rank chosen for an effective sample of nEff points onto
// the real sample of n points, preserving the (more conservative) tail
// fraction k/nEff. Rounding down keeps the mapped rank on the conservative
// side; the result is clamped to [1, n].
func scaleRank(k, n, nEff int) int {
	if nEff == n || nEff <= 0 {
		return k
	}
	k = int(math.Floor(float64(k) * float64(n) / float64(nEff)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

func (p *Predictor) histLen() int { return len(p.chron) - p.head }

func (p *Predictor) history() []float64 { return p.chron[p.head:] }

func (p *Predictor) evictOldest() {
	p.store.Remove(p.chron[p.head])
	p.head++
	if p.head > len(p.chron)/2 && p.head > 1024 {
		p.chron = append(p.chron[:0], p.chron[p.head:]...)
		p.head = 0
	}
}

func (p *Predictor) pushViolation(v bool) {
	if len(p.violRing) == 0 {
		return
	}
	if p.violFill == len(p.violRing) {
		if p.violRing[p.violIdx] {
			p.violCount--
		}
	} else {
		p.violFill++
	}
	p.violRing[p.violIdx] = v
	if v {
		p.violCount++
	}
	p.violIdx = (p.violIdx + 1) % len(p.violRing)
}

func (p *Predictor) resetViolations() {
	for i := range p.violRing {
		p.violRing[i] = false
	}
	p.violIdx, p.violFill, p.violCount = 0, 0, 0
}

// exceedanceShift tests whether the recent violation rate is implausibly
// high under the stationarity hypothesis (changePoints.exceed).
func (p *Predictor) exceedanceShift() bool { return p.cp.exceed[p.violCount] }

// medianShift runs a two-sided sign test (changePoints.median) of the
// last W observations against the median of the full retained history.
// Ties with the median contribute half a count (midrank), so constant
// stretches do not trigger. This detector catches level shifts in either
// direction — in particular downward price regime changes, which never
// violate an upper bound but leave it needlessly loose.
func (p *Predictor) medianShift() bool {
	w := p.cfg.ChangePointWindow
	n := p.store.Len()
	if n < 2*w {
		return false
	}
	median := p.store.Select((n + 1) / 2)
	hist := p.history()
	above, ties := 0, 0
	for _, v := range hist[len(hist)-w:] {
		switch {
		case v > median:
			above++
		//draftsvet:ignore floatcmp median is a stored sample; ties compare exactly by construction
		case v == median:
			ties++
		}
	}
	return p.cp.median[above+ties/2]
}

// truncate discards all but the last ChangePointWindow observations — the
// QBETS response to a detected change point: re-learn from the segment
// that looks stationary. Until the history regrows to a size with a
// binomial bound, Bound serves the conservative warm-up fallback.
func (p *Predictor) truncate() {
	p.changePoints++
	mChangePoints.Load().Inc()
	keep := p.cfg.ChangePointWindow
	for p.histLen() > keep {
		p.evictOldest()
	}
	p.resetViolations()
	p.rho = math.NaN()
	p.sinceRho = 0
	p.sinceMedianTest = 0
	p.pendingFlush = keep
}

// flushStale completes a change-point truncation: one window after the
// fire, everything that predates it (the straddling half of the retained
// window) is dropped, leaving only post-shift observations.
func (p *Predictor) flushStale() {
	keep := p.cfg.ChangePointWindow
	for p.histLen() > keep {
		p.evictOldest()
	}
	p.rho = math.NaN()
	p.sinceRho = 0
}

// estimateRho computes the lag-1 autocorrelation over (a bounded span of)
// the retained history.
func (p *Predictor) estimateRho() float64 {
	hist := p.history()
	if len(hist) > autocorrSpan {
		hist = hist[len(hist)-autocorrSpan:]
	}
	return stats.Autocorrelation(hist, 1)
}
