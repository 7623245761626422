// Package drafts is the public API of the DrAFTS library — Durability
// Agreements From Time Series — a Go implementation of "Probabilistic
// Guarantees of Execution Duration for Amazon Spot Instances" (Wolski,
// Brevik, Chard, Chard — SC'17).
//
// DrAFTS answers one question about a pre-2018-style Spot market: what is
// the smallest maximum bid that lets an instance run for at least a given
// duration with probability at least p? It applies QBETS, a non-parametric
// binomial quantile-bound forecaster, to the market price history twice —
// an upper bound on the next price (the minimum bid) and a lower bound on
// how long each candidate bid survives.
//
// # Quick start
//
//	series := drafts.SyntheticHistory(
//	    drafts.Combo{Zone: "us-east-1b", Type: "c4.large"},
//	    start, 3*30*24*12, 42)
//	pred, _ := drafts.NewPredictor(drafts.Params{Probability: 0.95}, series.Start)
//	pred.ObserveSeries(series)
//	quote, err := pred.Advise(2 * time.Hour)
//	// quote.Bid survives >= 2h with probability >= 0.95
//
// The subdirectories under cmd/ regenerate every table and figure of the
// paper's evaluation; see DESIGN.md for the experiment index.
package drafts

import (
	"fmt"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/service"
	"github.com/drafts-go/drafts/internal/spot"
)

// Domain vocabulary, re-exported from the internal packages so downstream
// users can name every type the API mentions.
type (
	// Region is an EC2-style region ("us-east-1").
	Region = spot.Region
	// Zone is an availability zone ("us-east-1b").
	Zone = spot.Zone
	// InstanceType names an instance type ("c4.large").
	InstanceType = spot.InstanceType
	// Combo is one market: an (availability zone, instance type) pair.
	Combo = spot.Combo
	// Series is a uniform-grid (5-minute) market price history.
	Series = history.Series

	// Params configures a Predictor: target probability, confidence and
	// history window.
	Params = core.Params
	// Predictor is the online DrAFTS forecaster for one market.
	Predictor = core.Predictor
	// Quote is a bid recommendation with its guaranteed duration.
	Quote = core.Quote
	// BidTable is the bid-vs-guaranteed-duration relationship at a moment.
	BidTable = core.BidTable
	// BidPoint is one entry of a BidTable.
	BidPoint = core.BidPoint

	// HistoryStore archives price series per combo; it satisfies the
	// service's Source interface.
	HistoryStore = history.Store

	// ServiceClient talks to a DrAFTS prediction service over REST.
	ServiceClient = service.Client
	// ServiceServer computes and serves bid tables over REST.
	ServiceServer = service.Server
	// ServiceConfig configures a ServiceServer.
	ServiceConfig = service.Config
)

// PriceTick is the smallest cost increment of the Spot tier ($0.0001).
const PriceTick = spot.PriceTick

// UpdatePeriod is the market's ~5-minute repricing period.
const UpdatePeriod = spot.UpdatePeriod

// NewPredictor creates an online DrAFTS predictor whose first observation
// corresponds to time start.
func NewPredictor(params Params, start time.Time) (*Predictor, error) {
	return core.NewPredictor(params, start)
}

// NewSeries allocates an empty price series beginning at start on the
// standard 5-minute grid.
func NewSeries(start time.Time) *Series { return history.NewSeries(start) }

// NewHistoryStore returns an empty price archive, ready to Put series into
// and to serve as a ServiceConfig.Source.
func NewHistoryStore() *HistoryStore { return history.NewStore() }

// PopulateSynthetic fills a store with deterministic synthetic histories
// for the given combos — the quickest way to stand up a ServiceServer
// without a live price feed.
func PopulateSynthetic(store *HistoryStore, combos []Combo, start time.Time, points int, seed int64) error {
	return pricegen.Generator{Seed: seed}.Populate(store, combos, start, points)
}

// LoadHistoryDir fills a store from a directory of archived histories (the
// cmd/drafts marketgen format); it returns the store and the file count.
func LoadHistoryDir(dir string) (*HistoryStore, int, error) { return history.LoadDir(dir) }

// NewServiceServer constructs a prediction service over a price source.
func NewServiceServer(cfg ServiceConfig) (*ServiceServer, error) { return service.New(cfg) }

// Combos enumerates the 452 (zone, type) combinations available across the
// modelled regions — the paper's backtest population.
func Combos() []Combo { return spot.Combos() }

// ODPrice returns the On-demand price for an instance type in a region.
func ODPrice(t InstanceType, r Region) (float64, error) { return spot.ODPrice(t, r) }

// SyntheticHistory generates a deterministic synthetic price history for a
// combo, with the market personality the paper documents for it (calm,
// volatile, spiky, hostile, diurnal, or cheap). It stands in for the
// retired EC2 price-history API.
func SyntheticHistory(c Combo, start time.Time, points int, seed int64) (*Series, error) {
	return pricegen.Generator{Seed: seed}.Series(c, start, points)
}

// TierChoice is the outcome of the §4.4 cost-optimization strategy.
type TierChoice struct {
	// UseSpot is true when the DrAFTS bid undercuts the On-demand price.
	UseSpot bool
	// Bid is the Spot maximum bid to submit (when UseSpot).
	Bid float64
	// HourlyWorstCase is the most the chosen tier can cost per hour: the
	// bid in the Spot tier, the fixed price On-demand.
	HourlyWorstCase float64
	// Duration is the probabilistic durability the choice carries.
	Duration time.Duration
}

// OptimizeCost implements the paper's provisioning strategy (§4.4): ask
// DrAFTS for the minimal bid guaranteeing the duration; if that bid is
// below the On-demand price, request a Spot instance with it — the
// worst-case spend is still below the reliable tier — otherwise buy
// On-demand. Either way the instance survives the duration with at least
// the predictor's configured probability.
func OptimizeCost(p *Predictor, odPrice float64, d time.Duration) (TierChoice, error) {
	if !(odPrice > 0) {
		return TierChoice{}, fmt.Errorf("drafts: non-positive on-demand price %v", odPrice)
	}
	quote, err := p.Advise(d)
	if err != nil || quote.Bid >= odPrice {
		// Cannot guarantee in the Spot tier below the fixed price; buy
		// reliability directly.
		return TierChoice{UseSpot: false, HourlyWorstCase: odPrice, Duration: d}, nil
	}
	return TierChoice{UseSpot: true, Bid: quote.Bid, HourlyWorstCase: quote.Bid, Duration: quote.Duration}, nil
}
