package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

var incStart = time.Date(2016, 10, 1, 0, 0, 0, 0, time.UTC)

// randomPrices draws a positive random-walk price path with occasional
// spikes and flat stretches — the regimes that exercise episode resolution,
// censoring, change-point resets, and history eviction differently.
func randomPrices(rng *rand.Rand, n int) []float64 {
	prices := make([]float64, n)
	p := 0.05 + rng.Float64()*0.2
	for i := range prices {
		switch rng.Intn(10) {
		case 0: // spike
			prices[i] = p * (1.5 + rng.Float64())
			continue
		case 1, 2: // flat
		default:
			p *= 1 + (rng.Float64()-0.5)*0.04
			if p < 0.001 {
				p = 0.001
			}
		}
		prices[i] = p
	}
	return prices
}

func tableBytes(t *testing.T, p *Predictor) ([]byte, bool) {
	t.Helper()
	table, ok := p.Table()
	if !ok {
		return nil, false
	}
	b, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	return b, true
}

// TestIncrementalTableEquivalence is the invariant behind the service's
// incremental refresh: cloning a predictor and feeding it only the ticks
// that arrived since must produce tables byte-identical to a predictor
// rebuilt over the full series. It checks 1000 random tick sequences with
// random split points, with MaxHistory small enough that many trials
// evict history across the split.
func TestIncrementalTableEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	params := Params{Probability: 0.95, MaxHistory: 120}
	for trial := 0; trial < 1000; trial++ {
		n := 40 + rng.Intn(200)
		cut := 1 + rng.Intn(n-1)
		prices := randomPrices(rng, n)

		full, err := NewPredictor(params, incStart)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range prices {
			full.Observe(v)
		}

		prefix, err := NewPredictor(params, incStart)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range prices[:cut] {
			prefix.Observe(v)
		}
		inc := prefix.Clone()
		for _, v := range prices[cut:] {
			inc.Observe(v)
		}

		wantB, wantOK := tableBytes(t, full)
		gotB, gotOK := tableBytes(t, inc)
		if wantOK != gotOK {
			t.Fatalf("trial %d (n=%d cut=%d): table ok mismatch: full=%v incremental=%v",
				trial, n, cut, wantOK, gotOK)
		}
		if !bytes.Equal(wantB, gotB) {
			t.Fatalf("trial %d (n=%d cut=%d): incremental table differs from full recompute:\nfull:        %s\nincremental: %s",
				trial, n, cut, wantB, gotB)
		}
		if !inc.Now().Equal(full.Now()) {
			t.Fatalf("trial %d: clock diverged: full=%v incremental=%v", trial, full.Now(), inc.Now())
		}
	}
}

// TestCloneIndependence ensures observations fed to a clone never leak
// into the original — the property that lets the service clone predictors
// that concurrent /v1/advise requests are still reading.
func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, err := NewPredictor(Params{Probability: 0.99, MaxHistory: 120}, incStart)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range randomPrices(rng, 150) {
		p.Observe(v)
	}
	before, beforeOK := tableBytes(t, p)

	clone := p.Clone()
	for _, v := range randomPrices(rng, 90) {
		clone.Observe(v)
	}

	after, afterOK := tableBytes(t, p)
	if beforeOK != afterOK || !bytes.Equal(before, after) {
		t.Fatalf("observing through a clone mutated the original:\nbefore: %s\nafter:  %s", before, after)
	}
	if clone.Now().Equal(p.Now()) {
		t.Fatal("clone clock did not advance independently")
	}
}

// TestParamsWithDefaults pins the exported default-filling wrapper to the
// effective parameters a constructed predictor reports.
func TestParamsWithDefaults(t *testing.T) {
	want, err := (Params{Probability: 0.95}).WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(Params{Probability: 0.95}, incStart)
	if err != nil {
		t.Fatal(err)
	}
	if p.Params() != want {
		t.Fatalf("Params() = %+v, WithDefaults = %+v", p.Params(), want)
	}
	if _, err := (Params{Probability: 1.5}).WithDefaults(); err == nil {
		t.Fatal("probability outside (0,1) accepted")
	}
}

// TestObserveAllMatchesObserve feeds the same prices, with prices Observe
// drops planted among them, one Observe per price and through ObserveAll
// in random chunks, and requires identical predictors: the same retained
// window, clock, saved state and table. MaxHistory ranges from unlimited
// to windows that chunks overrun whole and that compact many times.
func TestObserveAllMatchesObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dropped := []float64{math.NaN(), 0, -0.05, math.Inf(1), math.Inf(-1), 5e5}
	for trial := 0; trial < 200; trial++ {
		params := Params{Probability: 0.95, MaxHistory: []int{0, 50, 120, 1000}[trial%4]}
		n := 40 + rng.Intn(400)
		if trial%10 == 0 {
			n = 12000
		}
		prices := randomPrices(rng, n)
		for k := rng.Intn(6); k > 0; k-- {
			prices[rng.Intn(n)] = dropped[rng.Intn(len(dropped))]
		}

		perTick, err := NewPredictor(params, incStart)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range prices {
			perTick.Observe(v)
		}
		bulk, err := NewPredictor(params, incStart)
		if err != nil {
			t.Fatal(err)
		}
		for rest := prices; len(rest) > 0; {
			k := min(len(rest), 1+rng.Intn(300))
			bulk.ObserveAll(rest[:k])
			rest = rest[k:]
		}

		if !slices.Equal(bulk.hist(), perTick.hist()) || !bulk.Now().Equal(perTick.Now()) {
			t.Fatalf("trial %d: ObserveAll window %d ending %v, per-tick %d ending %v",
				trial, bulk.Len(), bulk.Now(), perTick.Len(), perTick.Now())
		}
		var want, got bytes.Buffer
		if err := perTick.Save(&want); err != nil {
			t.Fatal(err)
		}
		if err := bulk.Save(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d: saved states differ", trial)
		}
		wantTable, wantOK := tableBytes(t, perTick)
		gotTable, gotOK := tableBytes(t, bulk)
		if gotOK != wantOK || !bytes.Equal(gotTable, wantTable) {
			t.Fatalf("trial %d: tables differ", trial)
		}
	}
}
