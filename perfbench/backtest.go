package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"time"

	"github.com/drafts-go/drafts/internal/backtest"
	"github.com/drafts-go/drafts/internal/baselines"
	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/qbets"
	"github.com/drafts-go/drafts/internal/spot"
)

// backtestSize is the backtest workload's shape at one scale.
type backtestSize struct {
	combos, requests, leadDays, windowDays int
	setups                                 int
}

var backtestSizes = map[scale]backtestSize{
	fullScale: {combos: 6, requests: 300, leadDays: 90, windowDays: 61, setups: 7},
	tinyScale: {combos: 2, requests: 40, leadDays: 14, windowDays: 7, setups: 1},
}

// backtestStart is the paper's request window start (Oct 1 2016).
var backtestStart = time.Date(2016, 10, 1, 0, 0, 0, 0, time.UTC)

// backtestEnv holds one campaign's generated series.
type backtestEnv struct {
	combos []spot.Combo
	series map[spot.Combo]*history.Series
	lead   int
	perGen []float64 // ms per generated series
}

func setupBacktest(seed int64, sz backtestSize) (*backtestEnv, error) {
	env := &backtestEnv{combos: spot.Combos()[:sz.combos], series: map[spot.Combo]*history.Series{}}
	env.lead = sz.leadDays * 24 * 12
	total := env.lead + sz.windowDays*24*12 + 12*12 + 2 // window + 12h margin, as cmd/backtest
	start := backtestStart.Add(-time.Duration(env.lead) * spot.UpdatePeriod)
	gen := pricegen.Generator{Seed: seed}
	for _, c := range env.combos {
		t := now()
		s, err := gen.Series(c, start, total)
		if err != nil {
			return nil, err
		}
		env.perGen = append(env.perGen, ms(now().Sub(t)))
		env.series[c] = s
	}
	return env, nil
}

func (env *backtestEnv) config(seed int64, sz backtestSize, p float64) backtest.Config {
	return backtest.Config{
		Probability: p,
		NumRequests: sz.requests,
		HistoryLead: env.lead,
		Seed:        seed,
		Workers:     runtime.NumCPU(),
	}
}

// runBacktest times repeated Table 1 passes (backtest.Run) at p=0.99 and,
// alternating with them, at the Table 5 probability 0.95.
func runBacktest(ctx context.Context, o options, sc scale) (*result, error) {
	sz := backtestSizes[sc]
	res := newResult()
	var env *backtestEnv
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		env = nil
		runtime.GC()
		t := now()
		var err error
		if env, err = setupBacktest(o.seed, sz); err != nil {
			return nil, fmt.Errorf("backtest setup: %w", err)
		}
		setups = append(setups, now().Sub(t).Seconds())
	}
	res.e2e["setup_s"] = medianF(setups)
	res.add("setup_s", medianF(setups), "s", len(setups))
	res.note("backtest sizes: combos=%d requests=%d lead_days=%d window_days=%d workers=%d",
		sz.combos, sz.requests, sz.leadDays, sz.windowDays, runtime.NumCPU())

	// The only call backtest.Run makes back into the benchmark is
	// seriesFor; traced passes time it, as the wrapper around the series
	// supply, so the alternate untraced passes give the tracing overhead.
	var mu sync.Mutex
	var fetch []time.Duration
	traced := false
	seriesFor := func(c spot.Combo) (*history.Series, error) {
		t := now()
		s, ok := env.series[c]
		if traced {
			mu.Lock()
			fetch = append(fetch, now().Sub(t))
			mu.Unlock()
		}
		if !ok {
			return nil, fmt.Errorf("no series for %v", c)
		}
		return s, nil
	}

	runtime.GC()
	// Passes alternate between Table 1's p=0.99 (k=0) and Table 5's 0.95.
	probs := [2]float64{0.99, 0.95}
	var first [2][]backtest.ComboOutcome
	var passes [2][]time.Duration
	var plain, withTrace []time.Duration
	began := now()
	for i := 0; ctx.Err() == nil && (len(passes[1]) < 2 || now().Sub(began) < o.window); i++ {
		k := i % 2
		p := probs[k]
		traced = o.traced && i%4 == 2
		runtime.GC()
		t := now()
		outs, err := backtest.Run(env.config(o.seed, sz, p), env.combos, seriesFor)
		took := now().Sub(t)
		res.attempted++
		if err != nil {
			res.failed++
			res.fail("backtest pass at p=%v: %v", p, err)
			continue
		}
		passes[k] = append(passes[k], took)
		if k == 0 {
			if traced {
				withTrace = append(withTrace, took)
			} else {
				plain = append(plain, took)
			}
			below, _, _ := backtest.BucketTable(outs, 0.99)[baselines.MethodDrAFTS].Frac()
			if below != 0 {
				res.fail("DrAFTS below-target fraction at p=0.99 is %v, want 0", below)
			}
		}
		if first[k] == nil {
			first[k] = outs
		} else if !reflect.DeepEqual(first[k], outs) {
			res.fail("backtest outcomes at p=%v differ between passes", p)
		}
	}
	traced = false
	gcTotals(res)
	res.e2e["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(first)
	runtime.KeepAlive(env)

	res.e2e["primary_ms"] = ms(median(passes[0]))
	res.e2e["secondary_ms"] = ms(median(passes[1]))
	res.add("table1_s", median(passes[0]).Seconds(), "s", len(passes[0]))
	res.add("table1_p95_pass_s", median(passes[1]).Seconds(), "s", len(passes[1]))
	res.add("live_heap_mb", res.e2e["live_heap_mb"], "MB", 1)

	if o.traced {
		res.note("traced passes: seriesFor p50 %.0f ns over %d calls", float64(median(fetch)), len(fetch))
		res.layers["pricegen.series_ms"] = medianF(env.perGen)
		if len(withTrace) > 0 && len(plain) > 0 {
			res.layers["trace.overhead_pct"] = 100 * (float64(median(withTrace)) - float64(median(plain))) / float64(median(plain))
		} else {
			res.layers["trace.overhead_pct"] = 0
		}
		if err := backtestLayerProbes(env, sz, o.seed, median(passes[0]), res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// backtestLayerProbes times the stages one Table 1 pass runs per combo —
// core.Batch.Tables, AR1Bids and ECDFBids over 300 requests in the
// campaign window — and QBETS observe over one series. The residual is
// the share of a pass those stages do not explain, given its workers.
func backtestLayerProbes(env *backtestEnv, sz backtestSize, seed int64, pass time.Duration, res *result) error {
	rng := rand.New(rand.NewSource(seed))
	var batch, ar1, ecdf time.Duration
	for _, c := range env.combos {
		s := env.series[c]
		od, err := spot.ODPrice(c.Type, c.Zone.Region())
		if err != nil {
			return err
		}
		hi := s.Len() - core.StepsFor(12*time.Hour, s.Step) - 1
		queries := make([]int, sz.requests)
		for i := range queries {
			queries[i] = env.lead + i*(hi-env.lead)/sz.requests + rng.Intn(max(1, (hi-env.lead)/sz.requests))
		}
		params := core.Params{Probability: 0.99, Confidence: 0.99, MaxHistory: core.DefaultMaxHistory}
		runtime.GC()
		t := now()
		if _, err := (&core.Batch{Series: s, Params: params, MaxBid: core.SuggestedMaxBid(s, od)}).Tables(queries); err != nil {
			return err
		}
		batch += now().Sub(t)
		t = now()
		if _, err := baselines.AR1Bids(s, 0.99, 0.99, core.DefaultMaxHistory, queries); err != nil {
			return err
		}
		ar1 += now().Sub(t)
		t = now()
		if _, err := baselines.ECDFBids(s, 0.99, core.DefaultMaxHistory, queries); err != nil {
			return err
		}
		ecdf += now().Sub(t)
	}
	res.layers["core.batch_tables_ms"] = ms(batch)
	res.layers["baselines.ar1_ms"] = ms(ar1)
	res.layers["baselines.ecdf_ms"] = ms(ecdf)
	workers := float64(runtime.NumCPU())
	res.layers["backtest.residual_frac"] = 1 - float64(batch+ar1+ecdf)/(float64(pass)*workers)

	s := env.series[env.combos[0]]
	q, err := qbets.New(qbets.Config{
		Kind:       qbets.UpperBound,
		Quantile:   math.Sqrt(0.99),
		Confidence: 0.99,
		MaxHistory: core.DefaultMaxHistory,
		NewStore:   func() qbets.OrderStats { return qbets.NewFenwickStore(spot.PriceTick, 4) },
	})
	if err != nil {
		return err
	}
	runtime.GC()
	t := now()
	for _, v := range s.Prices {
		q.Observe(v)
	}
	res.layers["qbets.observe_ns"] = float64(now().Sub(t)) / float64(s.Len())
	return nil
}
