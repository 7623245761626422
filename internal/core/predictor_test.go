package core

import (
	"math"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/stats"
)

func mustGen(t *testing.T, c spot.Combo, n int) *history.Series {
	t.Helper()
	s, err := pricegen.Generator{Seed: 21}.Series(c, t0, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testParams(p float64) Params {
	return Params{Probability: p, MaxHistory: 6000}
}

func TestOnlinePredictorLifecycle(t *testing.T) {
	p, err := NewPredictor(testParams(0.95), t0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.MinBid(); ok {
		t.Error("MinBid with no data should fail")
	}
	if _, ok := p.GuaranteeFor(1); ok {
		t.Error("GuaranteeFor with no data should fail")
	}
	if _, err := p.Advise(time.Hour); err == nil {
		t.Error("Advise with no data should fail")
	}
	if _, err := p.Advise(-time.Hour); err == nil {
		t.Error("negative duration accepted")
	}
	if !p.Now().Equal(t0) {
		t.Errorf("Now with no data = %v", p.Now())
	}

	// Calm series carry strong lag-1 autocorrelation, so the effective
	// sample size is a small fraction of the raw length; 5000 points are
	// needed before the corrected bound carries full confidence.
	s := mustGen(t, spot.Combo{Zone: "us-east-1b", Type: "c4.large"}, 5000)
	p.ObserveSeries(s)
	if p.Len() != 5000 {
		t.Errorf("Len = %d", p.Len())
	}
	wantNow := t0.Add(4999 * spot.UpdatePeriod)
	if !p.Now().Equal(wantNow) {
		t.Errorf("Now = %v, want %v", p.Now(), wantNow)
	}
	mb, ok := p.MinBid()
	if !ok {
		t.Fatal("no MinBid")
	}
	if cur := s.Prices[s.Len()-1]; mb <= cur {
		t.Errorf("MinBid %v not above current price %v", mb, cur)
	}
	if spot.RoundToTick(mb) != mb {
		t.Errorf("MinBid %v off tick grid", mb)
	}
}

func TestWarmedOnStationaryFeed(t *testing.T) {
	// Warmed is only a sometimes-property on spiky market data (a change
	// point resets the history); on a stationary i.i.d. feed it must hold
	// once the effective sample size clears the binomial minimum.
	p, _ := NewPredictor(testParams(0.95), t0)
	rng := stats.NewRNG(77)
	for i := 0; i < 4000; i++ {
		p.Observe(spot.RoundToTick(0.05 + 0.02*rng.Float64()))
	}
	if !p.Warmed() {
		t.Error("not warmed after 4000 i.i.d. points")
	}
}

func TestObserveIgnoresGarbage(t *testing.T) {
	p, _ := NewPredictor(testParams(0.95), t0)
	p.Observe(math.NaN())
	p.Observe(-1)
	p.Observe(0)
	p.Observe(math.Inf(1))
	if p.Len() != 0 {
		t.Errorf("garbage retained: %d", p.Len())
	}
}

func TestMaxHistoryWindow(t *testing.T) {
	params := testParams(0.95)
	params.MaxHistory = 500
	p, _ := NewPredictor(params, t0)
	for i := 0; i < 3000; i++ {
		p.Observe(0.1)
	}
	if p.Len() != 500 {
		t.Errorf("window = %d, want 500", p.Len())
	}
}

func TestGuaranteeRoughlyMonotoneInBid(t *testing.T) {
	// Raw per-level bounds are estimated from different episode samples,
	// so a higher bid's bound can dip below a lower bid's by a rank or
	// two; BidTable's monotone pass smooths that for users. Here we check
	// the raw estimator never regresses badly and trends upward overall.
	p, _ := NewPredictor(testParams(0.95), t0)
	p.ObserveSeries(mustGen(t, spot.Combo{Zone: "us-west-1a", Type: "c3.2xlarge"}, 5000))
	bids := []float64{0.1, 0.15, 0.25, 0.5, 1.0, 2.0}
	prev := time.Duration(-1)
	var first, last time.Duration
	for i, bid := range bids {
		g, ok := p.GuaranteeFor(bid)
		if !ok {
			t.Fatalf("no guarantee at bid %v", bid)
		}
		if prev > 0 && g < prev*7/10 {
			t.Errorf("guarantee collapsed at bid %v: %v << %v", bid, g, prev)
		}
		prev = g
		if i == 0 {
			first = g
		}
		last = g
	}
	if last < first {
		t.Errorf("highest bid guarantee %v below lowest %v", last, first)
	}
}

func TestAdviseSatisfiesOrErrors(t *testing.T) {
	p, _ := NewPredictor(testParams(0.95), t0)
	p.ObserveSeries(mustGen(t, spot.Combo{Zone: "us-east-1b", Type: "c4.large"}, 5000))
	q, err := p.Advise(time.Hour)
	if err != nil {
		t.Fatalf("Advise(1h) on a calm market failed: %v", err)
	}
	if q.Duration < time.Hour {
		t.Errorf("quote duration %v below request", q.Duration)
	}
	if q.Probability != 0.95 {
		t.Errorf("quote probability %v", q.Probability)
	}
	mb, _ := p.MinBid()
	if q.Bid < mb {
		t.Errorf("quote bid %v below minimum bid %v", q.Bid, mb)
	}
	// A month-long guarantee cannot be promised from ~17 days of data.
	if _, err := p.Advise(30 * 24 * time.Hour); err == nil {
		t.Error("impossible duration accepted")
	}
}

func TestTableShape(t *testing.T) {
	p, _ := NewPredictor(testParams(0.99), t0)
	p.ObserveSeries(mustGen(t, spot.Combo{Zone: "us-east-1b", Type: "m4.xlarge"}, 5000))
	tab, ok := p.Table()
	if !ok {
		t.Fatal("no table")
	}
	if len(tab.Points) < 20 {
		t.Fatalf("table has %d points; 5%% steps to 4x should give ~29", len(tab.Points))
	}
	mb, _ := p.MinBid()
	if tab.Points[0].Bid != mb {
		t.Errorf("table[0] = %v, want min bid %v", tab.Points[0].Bid, mb)
	}
	last := tab.Points[len(tab.Points)-1].Bid
	if last < 3.7*mb || last > 4.3*mb {
		t.Errorf("table span %v..%v not ~4x", mb, last)
	}
	for i := 1; i < len(tab.Points); i++ {
		if tab.Points[i].Bid <= tab.Points[i-1].Bid {
			t.Fatal("bids not ascending")
		}
		if tab.Points[i].Duration < tab.Points[i-1].Duration {
			t.Fatal("durations not monotone")
		}
	}
	if tab.Probability != 0.99 {
		t.Errorf("table probability %v", tab.Probability)
	}
}

func TestBatchValidation(t *testing.T) {
	s := mustGen(t, spot.Combo{Zone: "us-east-1b", Type: "c4.large"}, 1000)
	b := &Batch{Series: s, Params: testParams(0.95), MaxBid: 1}
	if _, err := b.Tables([]int{5, 5}); err == nil {
		t.Error("non-ascending queries accepted")
	}
	if _, err := b.Tables([]int{-1}); err == nil {
		t.Error("negative query accepted")
	}
	if _, err := b.Tables([]int{5000}); err == nil {
		t.Error("out-of-range query accepted")
	}
	if _, err := (&Batch{Series: s, Params: testParams(0.95)}).Tables([]int{10}); err == nil {
		t.Error("missing MaxBid accepted")
	}
	if _, err := (&Batch{Params: testParams(0.95), MaxBid: 1}).Tables([]int{0}); err == nil {
		t.Error("missing series accepted")
	}
	if _, err := (&Batch{Series: s, Params: Params{}, MaxBid: 1}).Tables([]int{0}); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestBatchMatchesOnline: the batch evaluator and the online predictor
// must produce the same minimum bid and the same min-bid duration bound
// when fed the same prefix.
func TestBatchMatchesOnline(t *testing.T) {
	combo := spot.Combo{Zone: "us-west-1a", Type: "c3.2xlarge"}
	s := mustGen(t, combo, 4000)
	params := testParams(0.95)
	queries := []int{2500, 3200, 3999}
	od, _ := spot.ODPrice(combo.Type, combo.Zone.Region())
	tables, err := (&Batch{Series: s, Params: params, MaxBid: SuggestedMaxBid(s, od)}).Tables(queries)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		p, _ := NewPredictor(params, t0)
		p.ObserveSeries(s.Slice(0, q+1))
		mbOnline, ok := p.MinBid()
		if !ok {
			t.Fatal("no online min bid")
		}
		mbBatch, ok := tables[qi].MinBid()
		if !ok {
			t.Fatal("no batch min bid")
		}
		if mbOnline != mbBatch {
			t.Errorf("query %d: min bid online %v vs batch %v", q, mbOnline, mbBatch)
		}
		gOnline, _ := p.GuaranteeFor(mbOnline)
		// The batch table's first point is the min-bid entry, possibly
		// raised by the monotonicity pass; it must be at least the online
		// guarantee and equal before enforcement.
		if tables[qi].Points[0].Duration < gOnline {
			t.Errorf("query %d: batch min-bid duration %v below online %v",
				q, tables[qi].Points[0].Duration, gOnline)
		}
		if !tables[qi].At.Equal(s.TimeAt(q)) {
			t.Errorf("query %d: table timestamp %v", q, tables[qi].At)
		}
	}
}

// TestBacktestCoverage is the miniature Table-1 experiment and the
// headline correctness property: random requests priced by DrAFTS must
// survive with frequency at least the target probability.
func TestBacktestCoverage(t *testing.T) {
	combos := []spot.Combo{
		{Zone: "us-east-1b", Type: "c4.large"},   // calm
		{Zone: "us-west-1a", Type: "c3.2xlarge"}, // volatile
		{Zone: "us-east-1e", Type: "c4.4xlarge"}, // spiky
	}
	const (
		target  = 0.95
		nReq    = 150
		nSeries = 16000 // ~55 days
	)
	rng := stats.NewRNG(4242)
	for _, combo := range combos {
		s := mustGen(t, combo, nSeries)
		od, _ := spot.ODPrice(combo.Type, combo.Zone.Region())
		params := testParams(target)

		maxSteps := 12 * 12 // 12 hours
		// Queries in the second half, leaving room for the longest request.
		qset := map[int]bool{}
		for len(qset) < nReq {
			qset[8000+rng.Intn(nSeries-8000-maxSteps-1)] = true
		}
		var queries []int
		for q := range qset {
			queries = append(queries, q)
		}
		sortInts(queries)

		maxBid := SuggestedMaxBid(s, od)
		tables, err := (&Batch{Series: s, Params: params, MaxBid: maxBid}).Tables(queries)
		if err != nil {
			t.Fatal(err)
		}
		success := 0
		for qi, q := range queries {
			need := 1 + rng.Intn(maxSteps) // up to 12 hours
			bid, ok := tables[qi].BidFor(time.Duration(need) * s.Step)
			if !ok {
				// The table cannot promise this duration even at its top
				// level; the experiment bids the table maximum.
				bid = tables[qi].Points[len(tables[qi].Points)-1].Bid
			}
			if Survives(s, q, bid, need) {
				success++
			}
		}
		frac := float64(success) / float64(len(queries))
		slack := 2.5 * math.Sqrt(target*(1-target)/float64(nReq))
		if frac < target-slack {
			t.Errorf("%v: success fraction %.3f below target %.2f (slack %.3f)", combo, frac, target, slack)
		}
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TestSuggestedMaxBid sanity.
func TestSuggestedMaxBid(t *testing.T) {
	s := seriesOf(0.1, 0.5, 0.2)
	if got := SuggestedMaxBid(s, 0.1); math.Abs(got-0.625) > 1e-9 {
		t.Errorf("SuggestedMaxBid = %v, want 1.25*max", got)
	}
	if got := SuggestedMaxBid(s, 1.0); got != 1.5 {
		t.Errorf("SuggestedMaxBid = %v, want 1.5*OD", got)
	}
}
