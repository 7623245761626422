package service

import (
	"bytes"
	"math"
	"testing"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/qbets"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/telemetry"
)

// seriesSource serves fixed series as given: unlike a history.Store it
// does not validate them, so they can carry prices predictors must drop.
type seriesSource map[spot.Combo]*history.Series

func (s seriesSource) Combos() []spot.Combo {
	combos := make([]spot.Combo, 0, len(s))
	for c := range s {
		combos = append(combos, c)
	}
	return combos
}

func (s seriesSource) Full(c spot.Combo) (*history.Series, bool) {
	ser, ok := s[c]
	return ser, ok
}

// beyondGrid is a finite positive price past the price QBETS's tick
// grid (math.MaxInt32 ticks of spot.PriceTick): core accepts it, QBETS
// drops it.
const beyondGrid = 5e5

// plantDefects returns a copy of ser with prices only some observers
// accept planted from index from on.
func plantDefects(ser *history.Series, from int) *history.Series {
	out := &history.Series{Start: ser.Start, Step: ser.Step, Prices: append([]float64(nil), ser.Prices...)}
	for i, v := range []float64{math.NaN(), 0, -0.05, math.Inf(1), beyondGrid, math.NaN(), beyondGrid} {
		out.Prices[from+37*i] = v
	}
	return out
}

// acceptedCounts is what one Observe call per price adds to the core and
// QBETS observation counters: core accepts finite positive prices and
// QBETS those of them its tick grid holds.
func acceptedCounts(prices []float64) (coreN, qbetsN uint64) {
	for _, v := range prices {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			continue
		}
		coreN++
		if v < beyondGrid {
			qbetsN++
		}
	}
	return coreN, qbetsN
}

// TestObservationCountersExact feeds a series carrying NaN, zero, a
// negative price, +Inf and prices beyond the QBETS grid through every
// observe path, one Observe per price, ObserveSeries, ObserveAll and a
// cold and an incremental Refresh, and requires each to raise
// drafts_predictor_observations_total and drafts_qbets_observations_total
// by exactly the prices one Observe call per price accepts.
func TestObservationCountersExact(t *testing.T) {
	reg := telemetry.NewRegistry()
	core.RegisterMetrics(reg)
	qbets.RegisterMetrics(reg)
	t.Cleanup(func() {
		core.RegisterMetrics(nil)
		qbets.RegisterMetrics(nil)
	})
	coreCount := reg.Counter("drafts_predictor_observations_total", "")
	qbetsCount := reg.Counter("drafts_qbets_observations_total", "")
	delta := func(f func()) (uint64, uint64) {
		c0, q0 := coreCount.Value(), qbetsCount.Value()
		f()
		return coreCount.Value() - c0, qbetsCount.Value() - q0
	}
	check := func(path string, f func(), wantCore, wantQBETS uint64) {
		t.Helper()
		gotCore, gotQBETS := delta(f)
		if gotCore != wantCore || gotQBETS != wantQBETS {
			t.Errorf("%s: counters rose by core %d, qbets %d; want %d, %d",
				path, gotCore, gotQBETS, wantCore, wantQBETS)
		}
	}

	combo := testCombos[0]
	clean, err := (pricegen.Generator{Seed: 31}).Series(combo, t0, 3000)
	if err != nil {
		t.Fatal(err)
	}
	ser := plantDefects(clean, 100)
	wantCore, wantQBETS := acceptedCounts(ser.Prices)
	if wantCore == uint64(ser.Len()) || wantQBETS == wantCore {
		t.Fatalf("accepted %d and %d of %d: the series should plant prices each observer drops",
			wantCore, wantQBETS, ser.Len())
	}

	params := core.Params{Probability: 0.99, MaxHistory: 1000}
	newPredictor := func() *core.Predictor {
		p, err := core.NewPredictor(params, ser.Start)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	perTick := newPredictor()
	check("Observe", func() {
		for _, v := range ser.Prices {
			perTick.Observe(v)
		}
	}, wantCore, wantQBETS)
	check("ObserveSeries", func() { newPredictor().ObserveSeries(ser) }, wantCore, wantQBETS)
	check("ObserveAll", func() {
		p := newPredictor()
		p.ObserveAll(ser.Prices[:1234])
		p.ObserveAll(ser.Prices[1234:])
	}, wantCore, wantQBETS)

	// A cold refresh observes every combo's whole series once per
	// served probability.
	levels := uint64(len(probabilities))
	srv, err := New(Config{Source: seriesSource{combo: ser}, MaxHistory: 1000})
	if err != nil {
		t.Fatal(err)
	}
	check("cold Refresh", func() {
		if err := srv.Refresh(); err != nil {
			t.Fatal(err)
		}
	}, levels*wantCore, levels*wantQBETS)

	// An incremental refresh observes only the ticks after the installed
	// predictors' clocks: here the defects all sit in the new ticks.
	const cut = 2000
	src := seriesSource{combo: &history.Series{Start: clean.Start, Step: clean.Step, Prices: clean.Prices[:cut]}}
	srv, err = New(Config{Source: src, MaxHistory: 1000, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	src[combo] = plantDefects(clean, cut+10)
	tailCore, tailQBETS := acceptedCounts(src[combo].Prices[cut:])
	incremental := srv.metrics.refreshIncremental.Value()
	check("incremental Refresh", func() {
		if err := srv.Refresh(); err != nil {
			t.Fatal(err)
		}
	}, levels*tailCore, levels*tailQBETS)
	if got := srv.metrics.refreshIncremental.Value() - incremental; got != levels {
		t.Errorf("%d predictors extended incrementally, want %d", got, levels)
	}
}

// TestIncrementalRefreshAfterDroppedPrices checks that a predictor's clock
// counts every offered tick, dropped prices included: after a cold
// refresh over a 2000-tick series carrying five prices the predictors
// drop, an incremental refresh over 5 new ticks observes exactly those 5
// per served probability, and its tables equal a cold refresh's.
func TestIncrementalRefreshAfterDroppedPrices(t *testing.T) {
	reg := telemetry.NewRegistry()
	core.RegisterMetrics(reg)
	t.Cleanup(func() { core.RegisterMetrics(nil) })
	observed := reg.Counter("drafts_predictor_observations_total", "")

	combo := testCombos[0]
	clean, err := (pricegen.Generator{Seed: 31}).Series(combo, t0, 2005)
	if err != nil {
		t.Fatal(err)
	}
	ser := &history.Series{Start: clean.Start, Step: clean.Step, Prices: append([]float64(nil), clean.Prices...)}
	for i, v := range []float64{math.NaN(), 0, -0.05, math.Inf(1), math.NaN()} {
		ser.Prices[300+251*i] = v
	}
	src := seriesSource{combo: &history.Series{Start: ser.Start, Step: ser.Step, Prices: ser.Prices[:2000]}}
	srv, err := New(Config{Source: src, MaxHistory: 1000, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	src[combo] = ser
	before, incremental := observed.Value(), srv.metrics.refreshIncremental.Value()
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	levels := uint64(len(probabilities))
	if got := observed.Value() - before; got != 5*levels {
		t.Errorf("incremental refresh observed %d prices, want %d", got, 5*levels)
	}
	if got := srv.metrics.refreshIncremental.Value() - incremental; got != levels {
		t.Errorf("%d predictors extended incrementally, want %d", got, levels)
	}

	cold, err := New(Config{Source: seriesSource{combo: ser}, MaxHistory: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Refresh(); err != nil {
		t.Fatal(err)
	}
	for _, prob := range probabilities {
		k := comboKey(combo, prob)
		inc, full := srv.blobs.Load().predictor(k), cold.blobs.Load().predictor(k)
		if !inc.Now().Equal(ser.TimeAt(ser.Len() - 1)) {
			t.Errorf("p=%v: clock at %v, want the series' last tick %v", prob, inc.Now(), ser.TimeAt(ser.Len()-1))
		}
		var a, b bytes.Buffer
		if err := inc.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := full.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("p=%v: incremental predictor saves differently from a cold one", prob)
		}
	}
}
