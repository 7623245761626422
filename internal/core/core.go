// Package core implements DrAFTS — Durability Agreements From Time Series —
// the paper's primary contribution (§3).
//
// DrAFTS answers: what is the smallest maximum bid that lets a Spot
// instance run for at least a requested duration with probability at least
// p? The methodology is a two-step application of the QBETS non-parametric
// quantile-bound forecaster:
//
//  1. Over the market price history, QBETS predicts an upper confidence
//     bound (confidence c, quantile q = sqrt(p)) on the next market price.
//     One price tick ($0.0001) is added so the bid is strictly above any
//     quoted price, accounting for the provider's freedom to terminate an
//     instance whose bid exactly equals the market price. This is the
//     minimum bid.
//  2. For each candidate bid value, the history induces a series of "bid
//     survival durations": from each point in time, how long until the
//     market price rose to meet the bid. QBETS predicts a lower confidence
//     bound (confidence c) on the (1-q)-quantile of that series — a
//     duration the bid survives with probability at least q, conditioned
//     on the instance starting at all.
//
// The product of the two quantiles meets the target probability p, which is
// why each side uses sqrt(p) (§3.2). The pairs (bid, duration bound) form a
// BidTable; the service exposes tables with bids in 5% increments up to 4x
// the minimum (§3.3).
//
// Durations whose terminating price rise has not happened yet by analysis
// time are right-censored; they enter the sample at their observed-so-far
// length, which can only lower a lower bound — the conservative direction.
package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/drafts-go/drafts/internal/history"
)

// Params configures a DrAFTS predictor.
type Params struct {
	// Probability is the target durability p in (0,1): the chance the
	// instance survives its full requested duration.
	Probability float64
	// Confidence is the QBETS confidence level c (default 0.99, the value
	// used throughout the paper).
	Confidence float64
	// MaxHistory caps the retained price history in grid steps. Default is
	// three months of 5-minute data (§3.3: "each DrAFTS maximum bid was
	// computed using the previous 3 months pricing data").
	MaxHistory int
}

// DefaultMaxHistory is three months of 5-minute price points.
const DefaultMaxHistory = 3 * 30 * 24 * 12

// The service's bid ladder (§3.3): bids rise from the minimum in 5% steps,
// and a published table stops at 4x the minimum.
const (
	tableRatio    = 1.05
	tableSpanMult = 4
)

func (p Params) withDefaults() (Params, error) {
	if !(p.Probability > 0 && p.Probability < 1) {
		return p, fmt.Errorf("core: probability %v outside (0,1)", p.Probability)
	}
	if p.Confidence == 0 {
		p.Confidence = 0.99
	}
	if !(p.Confidence > 0 && p.Confidence < 1) {
		return p, fmt.Errorf("core: confidence %v outside (0,1)", p.Confidence)
	}
	if p.MaxHistory == 0 {
		p.MaxHistory = DefaultMaxHistory
	}
	if p.MaxHistory < 0 {
		return p, fmt.Errorf("core: negative max history")
	}
	return p, nil
}

// WithDefaults returns the parameters with every zero field replaced by its
// documented default, validating ranges — the effective parameters a
// predictor constructed from p reports via Predictor.Params. Callers use it
// to decide whether an existing predictor is interchangeable with one that
// a given Params value would construct.
func (p Params) WithDefaults() (Params, error) { return p.withDefaults() }

// PriceQuantile returns q = sqrt(p), the quantile targeted on the price
// series.
func (p Params) PriceQuantile() float64 { return math.Sqrt(p.Probability) }

// DurationQuantile returns 1 - sqrt(p), the (low) quantile targeted on the
// duration series.
func (p Params) DurationQuantile() float64 { return 1 - math.Sqrt(p.Probability) }

// BidPoint pairs a bid with the duration it probabilistically guarantees.
type BidPoint struct {
	Bid float64
	// Duration is the lower bound on continuous availability: an instance
	// requested with this bid survives at least this long with probability
	// >= the table's Probability. Zero means no duration can be promised.
	Duration time.Duration
}

// BidTable is the bid/duration relationship at one moment (Figure 4): bids
// ascend and guaranteed durations are non-decreasing, as required by the
// market mechanism (higher bids can only survive longer).
type BidTable struct {
	At          time.Time
	Probability float64
	Points      []BidPoint
}

// BidFor returns the smallest tabulated bid whose guaranteed duration is
// at least d. ok is false when even the largest tabulated bid cannot
// promise d.
func (t BidTable) BidFor(d time.Duration) (float64, bool) {
	i := sort.Search(len(t.Points), func(i int) bool { return t.Points[i].Duration >= d })
	if i == len(t.Points) {
		return 0, false
	}
	return t.Points[i].Bid, true
}

// MinBid returns the table's smallest bid (the step-1 minimum bid), or ok
// false for an empty table.
func (t BidTable) MinBid() (float64, bool) {
	if len(t.Points) == 0 {
		return 0, false
	}
	return t.Points[0].Bid, true
}

// enforceMonotone makes guaranteed durations non-decreasing in the bid by
// taking a running maximum. The market mechanism implies monotonicity
// (§3: "as bids get larger, the durations must increase monotonically for
// a fixed target probability"); independent per-level estimation can
// wobble against it by a sample or two.
func enforceMonotone(points []BidPoint) {
	var best time.Duration
	for i := range points {
		if points[i].Duration < best {
			points[i].Duration = best
		} else {
			best = points[i].Duration
		}
	}
}

// Survives reports whether an instance launched at grid point i of s with
// the given bid completes `need` grid steps before a price termination at
// the first later grid point whose market price is at or above the bid
// (the conservative "eligible to be terminated" reading of §3.2). A
// termination exactly `need` steps in comes after the work is done, so
// only Prices[i+1 : i+need] are read: the scan is bounded by the request,
// not by the rest of the series. The work must also end within recorded
// history, i+need ≤ Len−1. need ≤ 0 always succeeds; otherwise a launch
// point outside the series fails.
func Survives(s *history.Series, i int, bid float64, need int) bool {
	if need <= 0 {
		return true
	}
	if i < 0 || need > s.Len()-1-i {
		return false
	}
	for _, p := range s.Prices[i+1 : i+need] {
		if p >= bid {
			return false
		}
	}
	return true
}

// StepsFor converts a wall-clock duration to grid steps, rounding up.
func StepsFor(d time.Duration, step time.Duration) int {
	if d <= 0 {
		return 0
	}
	return int((d + step - 1) / step)
}
