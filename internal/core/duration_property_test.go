package core

import (
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/stats"
)

// TestDurationBoundIsConservativeIID: on a synthetic market whose true
// episode-length distribution is known, the duration bound must sit at or
// below the true (1-q)-quantile with at least the configured confidence.
// Construction: price alternates low for G~Geometric(p) steps then high
// for one step; episode lengths are iid geometric, so the true quantile
// is available in closed form.
func TestDurationBoundIsConservativeIID(t *testing.T) {
	rng := stats.NewRNG(271)
	const (
		pCross = 0.05 // per-step crossing probability -> geometric episodes
		qd     = 0.05
		c      = 0.95
		trials = 300
	)
	// True (qd)-quantile of Geometric(pCross) on {1,2,...}:
	// smallest k with 1-(1-p)^k >= qd.
	trueQ := 0
	acc := 0.0
	for k := 1; ; k++ {
		acc = 1 - pow(1-pCross, k)
		if acc >= qd {
			trueQ = k
			break
		}
	}
	covered := 0
	for trial := 0; trial < trials; trial++ {
		prices := make([]float64, 4000)
		for i := range prices {
			if rng.Bernoulli(pCross) {
				prices[i] = 1.0
			} else {
				prices[i] = 0.1
			}
		}
		steps, ok := scanBound(prices, 0.5, qd, c)
		if !ok {
			t.Fatal("no bound")
		}
		if steps <= trueQ {
			covered++
		}
	}
	frac := float64(covered) / trials
	// The bound must be conservative (below the true quantile) with at
	// least confidence c, minus Monte-Carlo slack.
	if frac < c-0.05 {
		t.Errorf("bound covered only %.3f of trials (want >= %v)", frac, c)
	}
}

func pow(b float64, k int) float64 {
	out := 1.0
	for i := 0; i < k; i++ {
		out *= b
	}
	return out
}

// TestCensoringOnlyLowersBound: truncating the observation window (more
// censoring, less resolution) must never raise the duration bound beyond
// what the longer window supported — censored face values can only pull
// the low quantile down or keep it.
func TestCensoringOnlyLowersBound(t *testing.T) {
	s := mustGen(t, spot.Combo{Zone: "us-west-1a", Type: "c3.2xlarge"}, 8000)
	level := 0.4
	full, okFull := scanBound(s.Prices, level, 0.025, 0.99)
	if !okFull {
		t.Skip("level never crossed; nothing to compare")
	}
	// A prefix ending just after the last crossing has the same resolved
	// sample but shorter censored faces; its bound must not exceed the
	// full bound by more than the rank wobble of the smaller n.
	lastCross := -1
	for i, p := range s.Prices {
		if p >= level {
			lastCross = i
		}
	}
	if lastCross < 1000 {
		t.Skip("crossing too early for a meaningful prefix")
	}
	prefix, okPre := scanBound(s.Prices[:lastCross+1], level, 0.025, 0.99)
	if !okPre {
		t.Fatal("prefix lost the bound")
	}
	if prefix > full+1 {
		t.Errorf("prefix bound %d exceeds full bound %d", prefix, full)
	}
}

// TestAdviseQuoteIsSelfConsistent: the quote's own guarantee must be
// reproducible via GuaranteeFor at the quoted bid.
func TestAdviseQuoteIsSelfConsistent(t *testing.T) {
	p, _ := NewPredictor(testParams(0.95), t0)
	p.ObserveSeries(mustGen(t, spot.Combo{Zone: "us-east-1b", Type: "m4.large"}, 9000))
	for _, d := range []time.Duration{30 * time.Minute, 2 * time.Hour, 6 * time.Hour} {
		q, err := p.Advise(d)
		if err != nil {
			t.Fatalf("Advise(%v): %v", d, err)
		}
		g, ok := p.GuaranteeFor(q.Bid)
		if !ok || g != q.Duration {
			t.Errorf("Advise(%v) quote %v not reproducible: GuaranteeFor = %v, %v", d, q.Duration, g, ok)
		}
	}
}

// TestBatchTablesArePresentMomentOnly: shifting future prices must not
// change a table computed at an earlier query index.
func TestBatchTablesArePresentMomentOnly(t *testing.T) {
	combo := spot.Combo{Zone: "us-west-1a", Type: "c3.2xlarge"}
	s := mustGen(t, combo, 5000)
	od, _ := spot.ODPrice(combo.Type, combo.Zone.Region())
	maxBid := SuggestedMaxBid(s, od)

	q := []int{3000}
	orig, err := (&Batch{Series: s, Params: testParams(0.95), MaxBid: maxBid}).Tables(q)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the future violently.
	mutated := cloneSeries(s)
	for i := 3001; i < mutated.Len(); i++ {
		mutated.Prices[i] = spot.RoundToTick(mutated.Prices[i] * 7)
	}
	after, err := (&Batch{Series: mutated, Params: testParams(0.95), MaxBid: maxBid}).Tables(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig[0].Points) != len(after[0].Points) {
		t.Fatalf("table size changed with future data: %d vs %d", len(orig[0].Points), len(after[0].Points))
	}
	for i := range orig[0].Points {
		if orig[0].Points[i] != after[0].Points[i] {
			t.Fatalf("point %d leaked future information: %+v vs %+v",
				i, orig[0].Points[i], after[0].Points[i])
		}
	}
}
