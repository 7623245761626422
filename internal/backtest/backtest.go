// Package backtest implements the paper's correctness and cost-optimization
// experiments (§4.1 and §4.4): random Spot requests are replayed against
// recorded price histories, each request is priced by every bid method,
// and a request is "correct" when the bid would have prevented the
// provider from terminating the instance before its duration completed.
//
// The package produces the populations behind Table 1 (per-method
// correctness buckets over all zone/type combinations), Figure 1 (the CDF
// of sub-target success fractions for the On-demand method), and Tables 4
// and 5 (per-zone cost comparison of the min(DrAFTS bid, On-demand)
// provisioning strategy).
package backtest

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/drafts-go/drafts/internal/baselines"
	"github.com/drafts-go/drafts/internal/billing"
	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/stats"
)

// Config parameterizes one backtest campaign.
type Config struct {
	// Probability is the durability target p (0.99 for Table 1/4, 0.95
	// for Table 5).
	Probability float64
	// Confidence is the QBETS confidence (default 0.99).
	Confidence float64
	// NumRequests per combo (the paper uses 300).
	NumRequests int
	// MaxDuration bounds the uniformly random request duration (the paper
	// uses 12 hours).
	MaxDuration time.Duration
	// HistoryLead is how many grid steps of history precede the request
	// sampling window (the paper gives each prediction 3 months).
	HistoryLead int
	// Seed makes the campaign reproducible.
	Seed int64
	// Workers bounds parallelism (default: half the CPUs, at most 8). At
	// the backtest workload's shape (151 days of 5-minute prices, 300
	// requests) a combo's working set is its 0.35 MB series plus the
	// 1.7-3.1 MB its pass allocates.
	Workers int
}

func (c Config) withDefaults() (Config, error) {
	if !(c.Probability > 0 && c.Probability < 1) {
		return c, fmt.Errorf("backtest: probability %v outside (0,1)", c.Probability)
	}
	if c.Confidence == 0 {
		c.Confidence = 0.99
	}
	if c.NumRequests == 0 {
		c.NumRequests = 300
	}
	if c.NumRequests < 1 {
		return c, fmt.Errorf("backtest: need at least one request")
	}
	if c.MaxDuration == 0 {
		c.MaxDuration = 12 * time.Hour
	}
	if c.MaxDuration < spot.UpdatePeriod {
		return c, fmt.Errorf("backtest: max duration below one market period")
	}
	if c.HistoryLead < 0 {
		return c, fmt.Errorf("backtest: negative history lead")
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0) / 2
		if c.Workers > 8 {
			c.Workers = 8
		}
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	return c, nil
}

// ComboOutcome is the result of one combo's backtest.
type ComboOutcome struct {
	Combo    spot.Combo
	Requests int
	// Fractions maps method name to its success fraction.
	Fractions map[string]float64
	// ODCost is the total cost had every request run On-demand.
	ODCost float64
	// StrategyCost is the total worst-case cost under the §4.4 strategy:
	// each request pays min(DrAFTS bid, On-demand price) per chargeable
	// hour (bidding in the Spot tier when the DrAFTS bid is cheaper,
	// otherwise buying On-demand).
	StrategyCost float64
	// SpotActualCost is the realized market cost of the requests the
	// strategy sent to the Spot tier (informational; the paper reports
	// worst case).
	SpotActualCost float64
	// TightnessSum accumulates, over all requests, the ratio of the
	// DrAFTS bid to the market price at request time — the tech report's
	// "tightness" metric (§4.4 cites per-combo averages of 4.8-7.5).
	// Divide by Requests for the combo average.
	TightnessSum float64
}

// Tightness returns the combo's average bid-to-market-price ratio.
func (o ComboOutcome) Tightness() float64 {
	if o.Requests == 0 {
		return 0
	}
	return o.TightnessSum / float64(o.Requests)
}

// Run backtests every combo, generating requests and scoring all four
// methods. seriesFor supplies each combo's full price history (history
// lead plus request window); it is called from worker goroutines and must
// be safe for concurrent use.
func Run(cfg Config, combos []spot.Combo, seriesFor func(spot.Combo) (*history.Series, error)) ([]ComboOutcome, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	out := make([]ComboOutcome, len(combos))
	errs := make([]error, len(combos))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				s, err := seriesFor(combos[i])
				if err == nil {
					out[i], err = runCombo(cfg, combos[i], s)
				}
				errs[i] = err
			}
		}()
	}
	for i := range combos {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runCombo scores one combo.
func runCombo(cfg Config, combo spot.Combo, s *history.Series) (ComboOutcome, error) {
	od, err := spot.ODPrice(combo.Type, combo.Zone.Region())
	if err != nil {
		return ComboOutcome{}, err
	}
	maxSteps := core.StepsFor(cfg.MaxDuration, s.Step)
	loQ := cfg.HistoryLead
	hiQ := s.Len() - maxSteps - 1
	if hiQ-loQ < cfg.NumRequests {
		return ComboOutcome{}, fmt.Errorf("backtest: %v: window [%d,%d) too small for %d requests",
			combo, loQ, hiQ, cfg.NumRequests)
	}

	rng := stats.NewRNG(stats.ForkSeed(cfg.Seed, comboLabel(combo)))
	qset := make(map[int]bool, cfg.NumRequests)
	for len(qset) < cfg.NumRequests {
		qset[loQ+rng.Intn(hiQ-loQ)] = true
	}
	queries := make([]int, 0, len(qset))
	for q := range qset {
		queries = append(queries, q)
	}
	sort.Ints(queries)
	needs := make([]int, len(queries))
	for i := range needs {
		needs[i] = 1 + rng.Intn(maxSteps)
	}

	params := core.Params{
		Probability: cfg.Probability,
		Confidence:  cfg.Confidence,
		MaxHistory:  core.DefaultMaxHistory,
	}
	tables, err := (&core.Batch{Series: s, Params: params, MaxBid: core.SuggestedMaxBid(s, od)}).Tables(queries)
	if err != nil {
		return ComboOutcome{}, err
	}
	draftsBids := make([]float64, len(queries))
	for i, tab := range tables {
		bid, ok := tab.BidFor(time.Duration(needs[i]) * s.Step)
		if !ok {
			// No tabulated bid promises the duration: the experiment bids
			// the table's ceiling, its best effort.
			bid = tab.Points[len(tab.Points)-1].Bid
		}
		draftsBids[i] = bid
	}

	odBids := baselines.OnDemandBids(od, queries)
	ar1Bids, err := baselines.AR1Bids(s, cfg.Probability, cfg.Confidence, core.DefaultMaxHistory, queries)
	if err != nil {
		return ComboOutcome{}, err
	}
	ecdfBids, err := baselines.ECDFBids(s, cfg.Probability, core.DefaultMaxHistory, queries)
	if err != nil {
		return ComboOutcome{}, err
	}

	outcome := ComboOutcome{
		Combo:     combo,
		Requests:  len(queries),
		Fractions: make(map[string]float64, 4),
	}
	methodBids := map[string][]float64{
		baselines.MethodDrAFTS:   draftsBids,
		baselines.MethodOnDemand: odBids,
		baselines.MethodAR1:      ar1Bids,
		baselines.MethodECDF:     ecdfBids,
	}
	// Each request is scored once per method; the DrAFTS verdicts are
	// kept for the cost loop below.
	draftsOK := make([]bool, len(queries))
	for method, bids := range methodBids {
		succ := 0
		for i, q := range queries {
			ok := succeeds(s, q, bids[i], needs[i])
			if ok {
				succ++
			}
			if method == baselines.MethodDrAFTS {
				draftsOK[i] = ok
			}
		}
		outcome.Fractions[method] = float64(succ) / float64(len(queries))
	}

	// Cost accounting for the §4.4 strategy, using the DrAFTS bids.
	for i, q := range queries {
		if p := s.Prices[q]; p > 0 {
			outcome.TightnessSum += draftsBids[i] / p
		}
		d := time.Duration(needs[i]) * s.Step
		hours := float64(billing.ChargeableHours(d, billing.UserTerminated))
		outcome.ODCost += od * hours
		bid := draftsBids[i]
		if bid < od {
			outcome.StrategyCost += bid * hours
			if draftsOK[i] {
				if cost, err := billing.Cost(s, s.TimeAt(q), s.TimeAt(q).Add(d), billing.UserTerminated); err == nil {
					outcome.SpotActualCost += cost
				}
			}
		} else {
			outcome.StrategyCost += od * hours
			outcome.SpotActualCost += od * hours
		}
	}
	return outcome, nil
}

// succeeds is the §4.1 correctness predicate: the request must launch (bid
// above the market price at submission) and then survive its duration.
func succeeds(s *history.Series, q int, bid float64, need int) bool {
	if bid <= s.Prices[q] {
		return false // launch failure, the paper's third failure mode
	}
	return core.Survives(s, q, bid, need)
}

func comboLabel(c spot.Combo) int64 {
	var h int64 = 1469598103934665603
	for _, b := range []byte(c.String()) {
		h ^= int64(b)
		h *= 1099511628211
	}
	return h
}
