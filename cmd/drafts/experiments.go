package main

import (
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"text/tabwriter"
	"time"

	"github.com/drafts-go/drafts/internal/ascii"
	"github.com/drafts-go/drafts/internal/backtest"
	"github.com/drafts-go/drafts/internal/baselines"
	"github.com/drafts-go/drafts/internal/cloudsim"
	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/impact"
	"github.com/drafts-go/drafts/internal/launch"
	"github.com/drafts-go/drafts/internal/migrate"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/provisioner"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/workload"
)

// scale picks an experiment's sizes: paper reproduces the published
// setup, smoke shrinks the sizes (never the seeds) so every experiment
// runs in seconds.
type scale int

const (
	paper scale = iota
	smoke
)

// experiment is one table or figure: run builds its configs from the
// lab's scale, renders the result to w and returns it typed.
type experiment struct {
	name string
	run  func(l *lab, w io.Writer) (any, error)
}

// experiments is the registry, in the order "all" runs it.
var experiments = []experiment{
	{"table1", table1},
	{"figure1", figure1},
	{"table4", zoneCosts(4, 0.99)},
	{"table5", zoneCosts(5, 0.95)},
	{"figure2", launchFigure(2)},
	{"figure3", launchFigure(3)},
	{"figure4", figure4},
	{"table2", table2},
	{"table3", table3},
	{"impact", adoption},
	{"hosting", hosting},
}

// lab runs experiments at one scale. It keeps the Table-1 family's
// backtest campaigns, one per probability, so table1, figure1 and table4
// share a single p=0.99 run.
type lab struct {
	scale     scale
	seed      int64 // 0 keeps each experiment's paper seed
	log       *slog.Logger
	campaigns map[float64][]backtest.ComboOutcome
}

func newLab(sc scale, seed int64, log *slog.Logger) *lab {
	return &lab{scale: sc, seed: seed, log: log, campaigns: map[float64][]backtest.ComboOutcome{}}
}

// seedOr returns the -seed override, or else the experiment's paper seed.
func (l *lab) seedOr(paperSeed int64) int64 {
	if l.seed != 0 {
		return l.seed
	}
	return paperSeed
}

// pick returns the value for the lab's scale.
func pick[T any](l *lab, atPaper, atSmoke T) T {
	if l.scale == smoke {
		return atSmoke
	}
	return atPaper
}

// requests is the Table-1 family's request count per combo.
func (l *lab) requests() int { return pick(l, 300, 60) }

// onePerZoneArchetype keeps the first combo of every (zone, archetype)
// pair in catalog order: the smoke-scale backtest population.
func onePerZoneArchetype() []spot.Combo {
	type key struct {
		zone spot.Zone
		arch pricegen.Archetype
	}
	seen := map[key]bool{}
	var out []spot.Combo
	for _, c := range spot.Combos() {
		if k := (key{c.Zone, pricegen.ArchetypeFor(c)}); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// campaign backtests the population at probability p (§4.1): 90 days of
// history lead each request, sampled over the paper's 61-day Oct 1 - Dec 1
// window. Each probability runs once per lab.
func (l *lab) campaign(p float64) ([]backtest.ComboOutcome, error) {
	if outs, ok := l.campaigns[p]; ok {
		return outs, nil
	}
	combos := pick(l, spot.Combos(), onePerZoneArchetype())
	seed := l.seedOr(42)
	lead := 90 * 24 * 12
	total := lead + 61*24*12 + 12*12 + 2 // window + 12h margin
	start := time.Date(2016, 10, 1, 0, 0, 0, 0, time.UTC).
		Add(-time.Duration(lead) * spot.UpdatePeriod)
	gen := pricegen.Generator{Seed: seed}
	cfg := backtest.Config{
		Probability: p,
		NumRequests: l.requests(),
		HistoryLead: lead,
		Seed:        seed,
		// Smoke's 53 combos fit one worker per CPU; the paper's 452 keep
		// backtest's memory-bounded default.
		Workers: pick(l, 0, runtime.GOMAXPROCS(0)),
	}
	l.log.Info("backtesting", "combos", len(combos), "requests", cfg.NumRequests, "p", p)
	began := time.Now()
	outs, err := backtest.Run(cfg, combos, func(c spot.Combo) (*history.Series, error) {
		return gen.Series(c, start, total)
	})
	if err != nil {
		return nil, err
	}
	l.log.Info("campaign done", "p", p, "elapsed", time.Since(began).Round(time.Second))
	l.campaigns[p] = outs
	return outs, nil
}

// table1 prints Table 1 (correctness buckets for all four methods), the
// tech report's bid tightness and the per-archetype diagnostic.
func table1(l *lab, w io.Writer) (any, error) {
	outs99, err := l.campaign(0.99)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nTable 1: backtested correctness fractions, %d combos, %d requests each, durations U(0,12h]\n\n",
		len(outs99), l.requests())
	if err := backtest.WriteBucketTable(w, backtest.BucketTable(outs99, 0.99), 0.99); err != nil {
		return nil, err
	}
	// The tech report's tightness metric: bid / market price at
	// request time, averaged per combo (§4.4 cites 4.8-7.5).
	min, max, sum := 0.0, 0.0, 0.0
	for i, o := range outs99 {
		tt := o.Tightness()
		sum += tt
		if i == 0 || tt < min {
			min = tt
		}
		if tt > max {
			max = tt
		}
	}
	if len(outs99) > 0 {
		fmt.Fprintf(w, "\nDrAFTS bid tightness (bid/market-price): mean %.1f, per-combo range %.1f-%.1f\n",
			sum/float64(len(outs99)), min, max)
	}
	for _, method := range baselines.Methods() {
		below, noise := backtest.Indistinguishable(outs99, method, 0.99, 0.95)
		if below > 0 {
			fmt.Fprintf(w, "%s: %d combos below target, %d of them within Wilson 95%% noise of it\n",
				method, below, noise)
		}
	}
	fmt.Fprintln(w, "\nPer-archetype diagnostic (combos below target):")
	rows := backtest.ByArchetype(outs99, 0.99, func(c spot.Combo) string {
		return pricegen.ArchetypeFor(c).String()
	})
	return outs99, backtest.WriteArchetypeTable(w, rows)
}

// figure1 prints the CDF of On-demand-bid correctness fractions below 0.99.
func figure1(l *lab, w io.Writer) (any, error) {
	outs99, err := l.campaign(0.99)
	if err != nil {
		return nil, err
	}
	fs := backtest.FractionCDF(outs99, baselines.MethodOnDemand, 0.99)
	fmt.Fprintf(w, "\nFigure 1: CDF of On-demand-bid correctness fractions below 0.99 (%d combos qualify)\n\n", len(fs))
	fmt.Fprint(w, ascii.Chart{XLabel: "correctness fraction", YLabel: "cumulative probability"}.CDF(fs))
	fmt.Fprintln(w, "\ncorrectness_fraction  cumulative_probability")
	for i, f := range fs {
		fmt.Fprintf(w, "%.4f  %.4f\n", f, float64(i+1)/float64(len(fs)))
	}
	return outs99, nil
}

// zoneCosts prints Table 4 (p=0.99) or Table 5 (p=0.95): per-AZ cost of
// the §4.4 strategy against On-demand.
func zoneCosts(table int, p float64) func(*lab, io.Writer) (any, error) {
	return func(l *lab, w io.Writer) (any, error) {
		outs, err := l.campaign(p)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "\nTable %d: On-demand vs DrAFTS-based strategy cost, durability %v\n\n", table, p)
		return outs, backtest.WriteZoneCosts(w, backtest.CostByZone(outs))
	}
}

// launchFigure runs the §4.2 live-launch experiment: Figure 2 is 100
// c4.large launches in calm us-east-1, Figure 3 100 c3.2xlarge launches
// in volatile us-west-1, both at p=0.95.
func launchFigure(fig int) func(*lab, io.Writer) (any, error) {
	return func(l *lab, w io.Writer) (any, error) {
		cfg := launch.Config{
			Region:       spot.USEast1,
			Type:         "c4.large",
			Start:        time.Date(2015, 11, 15, 0, 0, 0, 0, time.UTC),
			Probability:  0.95,
			NumInstances: pick(l, 100, 15),
			WarmupSteps:  pick(l, 3*30*24*12, 2500),
			Seed:         l.seedOr(1511),
		}
		if fig == 3 {
			cfg.Region, cfg.Type = spot.USWest1, "c3.2xlarge"
			cfg.Start = time.Date(2016, 1, 7, 0, 0, 0, 0, time.UTC)
		}
		res, err := launch.Run(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "# %s in %s, p=%v, %d launches (week-long schedule, 3300s instances)\n\n",
			cfg.Type, cfg.Region, cfg.Probability, len(res.Records))
		bids := make([]float64, len(res.Records))
		for i, rec := range res.Records {
			bids[i] = rec.Bid
		}
		fmt.Fprint(w, ascii.Chart{XLabel: "instance invocation number", YLabel: "DrAFTS maximum bid ($/hour)"}.Line(bids))
		fmt.Fprintln(w, "\nlaunch  zone          bid_usd_hour  outcome")
		for _, rec := range res.Records {
			fmt.Fprintf(w, "%6d  %-12s  %.4f        %s\n", rec.Seq+1, rec.Zone, rec.Bid, rec.Outcome)
		}
		fmt.Fprintf(w, "\nfailures: %d of %d (success fraction %.3f, target %.2f)\n",
			res.Failures(), len(res.Records), res.SuccessFraction(), cfg.Probability)
		return res, nil
	}
}

// figure4 prints the bid-duration table a service would publish for
// c3.4xlarge in us-east-1a at p=0.99 from three months of history.
func figure4(l *lab, w io.Writer) (any, error) {
	combo := spot.Combo{Zone: "us-east-1a", Type: "c3.4xlarge"}
	start := time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)
	s, err := pricegen.Generator{Seed: l.seedOr(42)}.Series(combo, start, core.DefaultMaxHistory)
	if err != nil {
		return nil, err
	}
	pred, err := core.NewPredictor(core.Params{Probability: 0.99}, s.Start)
	if err != nil {
		return nil, err
	}
	pred.ObserveSeries(s)
	table, ok := pred.Table()
	if !ok {
		return nil, fmt.Errorf("no bid table for %s", combo)
	}
	fmt.Fprintf(w, "# Figure 4: bid-duration relationship for %s at p=%v, %d days of history from %s\n\n",
		combo, table.Probability, core.DefaultMaxHistory/(24*12), start.Format(time.DateOnly))
	xs := make([]float64, len(table.Points))
	ys := make([]float64, len(table.Points))
	for i, pt := range table.Points {
		xs[i], ys[i] = pt.Bid, pt.Duration.Hours()
	}
	fmt.Fprint(w, ascii.Chart{XLabel: "maximum bid ($/hour)", YLabel: "guaranteed duration (hours)"}.Series(xs, ys, '*'))
	fmt.Fprintln(w, "\nbid_usd  guaranteed_hours")
	for _, pt := range table.Points {
		fmt.Fprintf(w, "%.4f   %.2f\n", pt.Bid, pt.Duration.Hours())
	}
	return table, nil
}

// replay is the §4.3 setup: a Galaxies-shaped 1000-job workload over a
// 3h20m submission window, replayed in us-east-1 at p=0.99.
func (l *lab) replay() cloudsim.Config {
	seed := l.seedOr(2016)
	trace := workload.Galaxies(1000, 3*time.Hour+20*time.Minute, seed)
	l.log.Info("replaying workload",
		"jobs", len(trace.Jobs), "machine_hours", trace.TotalWork().Hours(), "region", spot.USEast1)
	return cloudsim.Config{
		Trace:       trace,
		Region:      spot.USEast1,
		Probability: 0.99,
		Seed:        seed,
		PriceSeed:   l.seedOr(428),
		WarmupSteps: cloudsim.DefaultWarmupSteps,
	}
}

// table2 prints one replay under Original (80% On-demand) and DrAFTS bids.
func table2(l *lab, w io.Writer) (any, error) {
	base := l.replay()
	var reports []cloudsim.Report
	for _, strat := range []provisioner.Strategy{provisioner.Original, provisioner.DrAFTS1Hr} {
		cfg := base
		cfg.Strategy = strat
		rep, err := cloudsim.Run(cfg)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	fmt.Fprintf(w, "\nTable 2: one workload replay under identical market conditions (p=0.99, 1-hr DrAFTS durations)\n\n")
	return reports, cloudsim.WriteTable2(w, reports)
}

// table3 prints the three strategies averaged over repeated replays.
func table3(l *lab, w io.Writer) (any, error) {
	runs := pick(l, 35, 3)
	began := time.Now()
	sums, err := cloudsim.CompareStrategies(l.replay(), runs)
	if err != nil {
		return nil, err
	}
	l.log.Info("experiments done",
		"runs", runs, "strategies", 3, "elapsed", time.Since(began).Round(time.Second))
	fmt.Fprintf(w, "\nTable 3: averages over %d simulated experiments per method\n\n", runs)
	return sums, cloudsim.WriteTable3(w, sums)
}

// adoption runs the §6 future-work sweep: DrAFTS-following agents bidding
// into the market they predict.
func adoption(l *lab, w io.Writer) (any, error) {
	cfg := impact.Config{
		Combo:            spot.Combo{Zone: "us-east-1b", Type: "c4.large"},
		Adoptions:        pick(l, []int{0, 4, 16, 64}, []int{0, 8}),
		Probability:      0.95,
		RequestsPerAgent: pick(l, 20, 5),
		WarmupSteps:      pick(l, 30*24*12, 2000),
		Seed:             l.seedOr(6),
	}
	res, err := impact.Run(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "DrAFTS adoption sweep on %s/%s at p=%v (%d requests per agent)\n\n",
		cfg.Combo.Zone, cfg.Combo.Type, cfg.Probability, cfg.RequestsPerAgent)
	fmt.Fprintln(w, "agents  requests  success_fraction  mean_price  price_cv  mean_bid")
	for _, lvl := range res {
		fmt.Fprintf(w, "%6d  %8d  %16.3f  $%.4f    %.3f     $%.4f\n",
			lvl.Agents, lvl.Requests, lvl.SuccessFraction(), lvl.MeanPrice, lvl.PriceCV, lvl.MeanBid)
	}
	fmt.Fprintln(w, "\nsuccess_fraction >= p at every level means the predictive capability")
	fmt.Fprintln(w, "survives adoption; rising price_cv or mean_price indicates the agents")
	fmt.Fprintln(w, "themselves destabilize or inflate the market they are predicting.")
	return res, nil
}

// hosting keeps one service alive in the Spot tier under three migration
// policies over identical markets (the §5 SpotCheck/SpotOn scenario).
func hosting(l *lab, w io.Writer) (any, error) {
	days := pick(l, 14, 1)
	cfg := migrate.Config{
		Region:      spot.USEast1,
		Type:        "c4.large",
		Horizon:     time.Duration(days) * 24 * time.Hour,
		WarmupSteps: pick(l, 30*24*12, 2000),
		Seed:        l.seedOr(3),
	}
	reports, err := migrate.RunAll(cfg)
	if err != nil {
		return nil, err
	}
	od, _ := spot.ODPrice(cfg.Type, cfg.Region)
	fmt.Fprintf(w, "hosting %s in %s for %d days (On-demand would cost $%.2f)\n\n",
		cfg.Type, cfg.Region, days, od*float64(days)*24)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Policy\tAvailability\tDowntime\tPlanned\tUnplanned\tWorst-case\tRealized")
	for _, r := range reports {
		fmt.Fprintf(tw, "%s\t%.5f\t%v\t%d\t%d\t$%.2f\t$%.2f\n",
			r.Policy, r.Availability, r.Downtime, r.PlannedMigrations, r.UnplannedFailovers, r.Cost, r.RealizedCost)
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "\nthe Amazon SLA refund threshold is 99.95% monthly availability; a policy")
	fmt.Fprintln(w, "meeting that from the Spot tier delivers the paper's 'reliable service")
	fmt.Fprintln(w, "from unreliable instances' at a fraction of the On-demand price.")
	return reports, nil
}
