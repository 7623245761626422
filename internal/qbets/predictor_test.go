package qbets

import (
	"bytes"
	"math"
	"testing"

	"github.com/drafts-go/drafts/internal/stats"
	"github.com/drafts-go/drafts/internal/telemetry"
)

func upperCfg() Config {
	return Config{Kind: UpperBound, Quantile: 0.975, Confidence: 0.99, NewStore: treapStore}
}

// MustNew is New for the tests' statically correct configurations.
func MustNew(cfg Config) *Predictor {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// warmed reports whether the history is long enough for Bound to carry the
// configured confidence level rather than the warm-up fallback: it reads
// the rank Bound reads.
func (p *Predictor) warmed() bool {
	n := p.store.Len()
	if n == 0 {
		return false
	}
	_, ok := p.rank.Index(p.effectiveLen(n))
	return ok
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Quantile: 0, Confidence: 0.9},
		{Quantile: 1, Confidence: 0.9},
		{Quantile: 0.5, Confidence: 0},
		{Quantile: 0.5, Confidence: 1},
		{Quantile: 0.5, Confidence: 0.9, ChangePointWindow: -1},
		{Quantile: 0.5, Confidence: 0.9, ChangePointAlpha: -0.1},
		{Quantile: 0.5, Confidence: 0.9, MaxHistory: -2},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(upperCfg()); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	noStore := upperCfg()
	noStore.NewStore = nil
	if _, err := New(noStore); err == nil {
		t.Error("config without an order-statistic store accepted")
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(Config{})
}

func TestWarmupFallbackIsSampleMax(t *testing.T) {
	p := MustNew(upperCfg())
	const min = 182 // the first size with a bound at q=0.975 c=0.99
	if _, ok := p.Bound(); ok {
		t.Fatal("bound available with no data")
	}
	if p.warmed() {
		t.Fatal("warmed with no data")
	}
	rng := stats.NewRNG(1)
	maxSeen := math.Inf(-1)
	for i := 0; i < min-1; i++ {
		v := rng.Float64()
		if v > maxSeen {
			maxSeen = v
		}
		p.Observe(v)
		b, ok := p.Bound()
		if !ok {
			t.Fatalf("bound unavailable at n=%d", i+1)
		}
		if b != maxSeen {
			t.Fatalf("warm-up bound at n=%d is %v, want sample max %v", i+1, b, maxSeen)
		}
		if p.warmed() {
			t.Fatalf("warmed during warm-up at n=%d", i+1)
		}
	}
	p.Observe(rng.Float64())
	if !p.warmed() {
		t.Fatal("not warmed at the first size with a bound")
	}
}

func TestWarmupFallbackIsSampleMinForLowerBound(t *testing.T) {
	p := MustNew(Config{Kind: LowerBound, Quantile: 0.025, Confidence: 0.99, NewStore: treapStore})
	p.Observe(5)
	p.Observe(2)
	p.Observe(9)
	b, ok := p.Bound()
	if !ok || b != 2 {
		t.Errorf("warm-up lower bound = %v, ok=%v; want sample min 2", b, ok)
	}
}

// TestLowerBoundMinSamplesSymmetry: a lower bound on the 0.025-quantile
// warms up at the same size as an upper bound on the 0.975-quantile.
func TestLowerBoundMinSamplesSymmetry(t *testing.T) {
	p := MustNew(Config{Kind: LowerBound, Quantile: 0.025, Confidence: 0.99, NoAutocorr: true, NoChangePoint: true, NewStore: treapStore})
	for n := 1; n <= 182; n++ {
		if p.warmed() {
			t.Fatalf("lower bound warmed at n=%d, want 182", n-1)
		}
		p.Observe(float64(n))
	}
	if !p.warmed() {
		t.Error("lower bound not warmed at n=182")
	}
}

// TestWarmedAgreesWithBound: warmed reads the rank Bound uses. At q=0.1,
// c=0.9 one observation already has a binomial bound (BinomialSF(1, 1,
// 0.9) reaches 0.9), though the closed form MinSamplesForUpperBound asks
// for two.
func TestWarmedAgreesWithBound(t *testing.T) {
	if stats.BinomialSF(1, 1, 0.9) < 0.9 {
		t.Fatal("BinomialSF(1, 1, 0.9) below 0.9: one observation has no bound")
	}
	p := MustNew(Config{Kind: UpperBound, Quantile: 0.1, Confidence: 0.9, NewStore: treapStore})
	p.Observe(3)
	if !p.warmed() {
		t.Error("not warmed at n=1, where Bound has a binomial bound")
	}
}

// TestUpperBoundCoverageIID checks the headline guarantee: on an iid
// series, the fraction of next-observation values that exceed the bound
// must be at most 1-q (up to Monte-Carlo noise), since the bound is a
// conservative upper bound on the q-quantile.
func TestUpperBoundCoverageIID(t *testing.T) {
	rng := stats.NewRNG(42)
	p := MustNew(upperCfg())
	const n = 20000
	violations, scored := 0, 0
	for i := 0; i < n; i++ {
		v := rng.LogNormal(0, 0.5)
		if b, ok := p.Bound(); ok {
			scored++
			if v > b {
				violations++
			}
		}
		p.Observe(v)
	}
	if scored < n/2 {
		t.Fatalf("bound available for only %d of %d observations", scored, n)
	}
	rate := float64(violations) / float64(scored)
	if rate > 0.025+0.006 {
		t.Errorf("violation rate %.4f exceeds 1-q = 0.025", rate)
	}
}

func TestLowerBoundCoverageIID(t *testing.T) {
	rng := stats.NewRNG(43)
	p := MustNew(Config{Kind: LowerBound, Quantile: 0.025, Confidence: 0.99, NewStore: treapStore})
	const n = 20000
	violations, scored := 0, 0
	for i := 0; i < n; i++ {
		v := rng.LogNormal(0, 0.5)
		if b, ok := p.Bound(); ok {
			scored++
			if v < b {
				violations++
			}
		}
		p.Observe(v)
	}
	rate := float64(violations) / float64(scored)
	if rate > 0.025+0.006 {
		t.Errorf("violation rate %.4f exceeds q = 0.025", rate)
	}
}

// TestUpperBoundCoverageAR1 repeats the coverage check on a strongly
// autocorrelated series; the ESS correction must keep the violation rate
// within the target.
func TestUpperBoundCoverageAR1(t *testing.T) {
	rng := stats.NewRNG(44)
	p := MustNew(upperCfg())
	const n = 30000
	x := 0.0
	violations, scored := 0, 0
	for i := 0; i < n; i++ {
		x = 0.9*x + rng.NormFloat64()
		if b, ok := p.Bound(); ok {
			scored++
			if x > b {
				violations++
			}
		}
		p.Observe(x)
	}
	rate := float64(violations) / float64(scored)
	// Autocorrelated violations cluster; allow a wider tolerance but the
	// rate must stay in the vicinity of 1-q rather than blowing up.
	if rate > 0.05 {
		t.Errorf("violation rate %.4f on AR(1) series (target 0.025)", rate)
	}
}

// TestChangePointAdaptation verifies the predictor re-learns after an
// upward regime shift: following the jump the bound must move to the new
// level within a bounded number of observations.
func TestChangePointAdaptation(t *testing.T) {
	rng := stats.NewRNG(45)
	p := MustNew(upperCfg())
	for i := 0; i < 2000; i++ {
		p.Observe(1 + 0.05*rng.Float64())
	}
	b0, ok := p.Bound()
	if !ok || b0 > 1.06 {
		t.Fatalf("pre-shift bound = %v, ok=%v", b0, ok)
	}
	// Regime shift: prices jump 10x.
	adapted := -1
	for i := 0; i < 2000; i++ {
		p.Observe(10 + 0.5*rng.Float64())
		if b, ok := p.Bound(); ok && b >= 10 && adapted < 0 {
			adapted = i
		}
	}
	if adapted < 0 {
		t.Fatal("bound never adapted to the new regime")
	}
	if adapted > 8*DefaultChangePointWindow {
		t.Errorf("adaptation took %d observations (window %d)", adapted, DefaultChangePointWindow)
	}
	if p.changePoints == 0 {
		t.Error("no change point recorded despite 10x regime shift")
	}
}

// TestDownwardShiftAdaptation verifies the median-shift detector: after a
// large price drop the (upper) bound must eventually fall, even though a
// falling series never violates an upper bound.
func TestDownwardShiftAdaptation(t *testing.T) {
	rng := stats.NewRNG(46)
	p := MustNew(upperCfg())
	for i := 0; i < 2000; i++ {
		p.Observe(10 + 0.5*rng.Float64())
	}
	adapted := -1
	for i := 0; i < 2000; i++ {
		p.Observe(1 + 0.05*rng.Float64())
		if b, ok := p.Bound(); ok && b < 2 && adapted < 0 {
			adapted = i
		}
	}
	if adapted < 0 {
		t.Fatal("upper bound never adapted to the cheaper regime")
	}
	if adapted > 8*DefaultChangePointWindow {
		t.Errorf("downward adaptation took %d observations", adapted)
	}
}

func TestConstantSeriesNoSpuriousChangePoints(t *testing.T) {
	p := MustNew(upperCfg())
	for i := 0; i < 5000; i++ {
		p.Observe(0.25)
	}
	if p.changePoints != 0 {
		t.Errorf("constant series fired %d change points", p.changePoints)
	}
	b, ok := p.Bound()
	if !ok || b != 0.25 {
		t.Errorf("constant series bound = %v, ok=%v", b, ok)
	}
}

func TestMaxHistoryEviction(t *testing.T) {
	cfg := upperCfg()
	cfg.MaxHistory = 500
	p := MustNew(cfg)
	rng := stats.NewRNG(50)
	// First 2500 observations near 100, last 600 near 1: after eviction of
	// everything but the final 500, the bound must reflect only the cheap
	// tail. Stationary noise within each phase avoids trend-driven change
	// points, and the final phase is long enough to flush detector
	// retention as well.
	for i := 0; i < 2500; i++ {
		p.Observe(100 + rng.Float64())
	}
	for i := 0; i < 600; i++ {
		p.Observe(1 + 0.01*rng.Float64())
	}
	if p.Len() > 500 {
		t.Fatalf("Len = %d, want <= 500", p.Len())
	}
	b, ok := p.Bound()
	if !ok || b > 2 {
		t.Errorf("bound = %v, ok=%v; old expensive regime not evicted", b, ok)
	}
}

func TestObserveIgnoresNonFinite(t *testing.T) {
	p := MustNew(upperCfg())
	p.Observe(math.NaN())
	p.Observe(math.Inf(1))
	p.Observe(math.Inf(-1))
	if p.Len() != 0 {
		t.Errorf("non-finite observations retained: Len = %d", p.Len())
	}
}

// TestObserveSkipsValuesOffTheLevelGrid: a LevelStore holds at most
// math.MaxInt32 ticks, so a price of 2^32 ticks is dropped like a
// non-finite one instead of panicking, and the predictor carries on.
func TestObserveSkipsValuesOffTheLevelGrid(t *testing.T) {
	cfg := upperCfg()
	cfg.NewStore = func() OrderStats { return NewLevelStore(0.0001) }
	p := MustNew(cfg)
	p.Observe(0.05)
	p.Observe(float64(1<<32) * 0.0001)
	p.Observe(-1)
	p.Observe(0.07)
	if p.Len() != 2 {
		t.Errorf("Len = %d, want the 2 on-grid observations", p.Len())
	}
	if b, ok := p.Bound(); !ok || math.Abs(b-0.07) > 1e-12 {
		t.Errorf("bound = %v, %v; want the on-grid maximum 0.07", b, ok)
	}
	if q := p.Clone(); q.grid == nil {
		t.Error("clone lost the store's grid check")
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	window := []float64{0.05, float64(1<<32) * 0.0001}
	if _, err := Load(&buf, window, cfg.NewStore); err == nil {
		t.Error("history window value off the level grid accepted")
	}
}

// TestBoundSeries: the bound after each observation, which predicts the
// next one, is the running maximum through warm-up and stays inside the
// data's range after it.
func TestBoundSeries(t *testing.T) {
	rng := stats.NewRNG(47)
	p := MustNew(upperCfg())
	runningMax := math.Inf(-1)
	for i := 0; i < 400; i++ {
		v := rng.Float64()
		p.Observe(v)
		if v > runningMax {
			runningMax = v
		}
		b, ok := p.Bound()
		if !ok {
			t.Fatalf("no bound after observation %d", i)
		}
		if b < 0 || b > 1 {
			t.Fatalf("bound at %d = %v outside data range", i, b)
		}
		if i < 181 && b != runningMax {
			t.Fatalf("warm-up bound at %d = %v, want running max %v", i, b, runningMax)
		}
	}
}

func TestFenwickBackendMatchesTreap(t *testing.T) {
	rng := stats.NewRNG(48)
	mk := func(store func() OrderStats) *Predictor {
		cfg := upperCfg()
		cfg.NewStore = store
		return MustNew(cfg)
	}
	pt := mk(func() OrderStats { return NewTreap(5) })
	pf := mk(func() OrderStats { return NewFenwickStore(0.0001, 2) })
	for i := 0; i < 4000; i++ {
		v := math.Round(rng.LogNormal(-2, 0.4)*1e4) / 1e4
		pt.Observe(v)
		pf.Observe(v)
		bt, okt := pt.Bound()
		bf, okf := pf.Bound()
		if okt != okf {
			t.Fatalf("step %d: availability diverged", i)
		}
		if okt && math.Abs(bt-bf) > 1e-9 {
			t.Fatalf("step %d: treap bound %v != fenwick bound %v", i, bt, bf)
		}
	}
}

func TestAutocorrCorrectionMakesBoundConservative(t *testing.T) {
	// On a strongly autocorrelated series, the corrected predictor's upper
	// bound must be at least the uncorrected one pointwise. Change-point
	// detection is disabled on both so they retain identical histories and
	// the comparison is apples to apples.
	rng := stats.NewRNG(49)
	onCfg := upperCfg()
	onCfg.NoChangePoint = true
	on := MustNew(onCfg)
	offCfg := upperCfg()
	offCfg.NoAutocorr = true
	offCfg.NoChangePoint = true
	off := MustNew(offCfg)
	x := 0.0
	for i := 0; i < 5000; i++ {
		x = 0.95*x + rng.NormFloat64()
		on.Observe(x)
		off.Observe(x)
		bOn, ok1 := on.Bound()
		bOff, ok2 := off.Bound()
		if ok1 && ok2 && on.warmed() && off.warmed() && bOn < bOff-1e-12 {
			t.Fatalf("step %d: corrected bound %v below uncorrected %v", i, bOn, bOff)
		}
	}
}

func TestKindString(t *testing.T) {
	if UpperBound.String() != "upper" || LowerBound.String() != "lower" {
		t.Error("Kind.String mismatch")
	}
}

// TestWarmPredictorAllocatesNothing: once a price predictor's window is
// full, Observe and Bound read the shared rank and change-point tables
// and reuse every buffer, so a tick allocates nothing. The prices cycle
// through levels the window already holds, as Spot prices revisit a few
// ladder rungs.
func TestWarmPredictorAllocatesNothing(t *testing.T) {
	const window = 2048
	p := MustNew(Config{
		Kind: UpperBound, Quantile: math.Sqrt(0.99), Confidence: 0.99, MaxHistory: window,
		NewStore: func() OrderStats { return NewLevelStore(0.0001) },
	})
	rng := stats.NewRNG(7)
	price := func() float64 { return float64(1000+rng.Intn(40)) * 0.0001 }
	for i := 0; i < 4*window; i++ {
		p.Observe(price())
	}
	var sink float64
	if a := testing.AllocsPerRun(4*window, func() {
		p.Observe(price())
		sink, _ = p.Bound()
	}); a != 0 {
		t.Errorf("warm Observe+Bound allocates %v times per tick", a)
	}
	if sink == 0 {
		t.Fatal("no bound")
	}
}

// TestObserveAllMatchesObserve requires ObserveAll to leave the same state
// as one Observe per value, with values a LevelStore drops (non-finite,
// negative, beyond its grid) among them, and to add exactly the accepted
// values to the observations counter.
func TestObserveAllMatchesObserve(t *testing.T) {
	reg := telemetry.NewRegistry()
	RegisterMetrics(reg)
	t.Cleanup(func() { RegisterMetrics(nil) })
	count := mObservations.Load()

	cfg := upperCfg()
	cfg.MaxHistory = 500
	cfg.NewStore = func() OrderStats { return NewLevelStore(0.0001) }
	vs := make([]float64, 3000)
	for i := range vs {
		vs[i] = 0.05 + 0.0001*float64((i*7919)%311)
	}
	for i, v := range []float64{math.NaN(), math.Inf(1), -1, 5e5, math.Inf(-1)} {
		vs[100+400*i] = v
	}

	perTick, bulk := MustNew(cfg), MustNew(cfg)
	before := count.Value()
	for _, v := range vs {
		perTick.Observe(v)
	}
	perTickN := count.Value() - before
	before = count.Value()
	bulk.ObserveAll(vs[:1700])
	bulk.ObserveAll(vs[1700:])
	bulkN := count.Value() - before
	if perTickN != uint64(len(vs)-5) || bulkN != perTickN {
		t.Errorf("counter rose by %d through ObserveAll, %d per tick; want %d", bulkN, perTickN, len(vs)-5)
	}

	var want, got bytes.Buffer
	if err := perTick.Save(&want); err != nil {
		t.Fatal(err)
	}
	if err := bulk.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("ObserveAll saved state differs from per-tick Observe's")
	}
}
