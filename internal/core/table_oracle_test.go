package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/spot"
)

// scanTable is the per-bid table construction Table replaced: one
// full-window duration scan per table bid, above the walk's ceiling too.
// It stays as the oracle Table must reproduce bit for bit.
func scanTable(p *Predictor) (BidTable, bool) {
	bid0, ok := p.MinBid()
	if !ok {
		return BidTable{}, false
	}
	t := BidTable{At: p.Now(), Probability: p.params.Probability}
	limit := bid0 * tableSpanMult
	for bid := bid0; bid <= limit+1e-12; bid *= tableRatio {
		tb := spot.RoundToTick(bid)
		if n := len(t.Points); n > 0 && t.Points[n-1].Bid >= tb {
			continue
		}
		d, _ := p.GuaranteeFor(tb)
		t.Points = append(t.Points, BidPoint{Bid: tb, Duration: d})
	}
	enforceMonotone(t.Points)
	return t, true
}

// scanAdvise is the escalation loop Advise ran before it read its answer
// off the walk: one full-window duration scan per 5% step, duplicate
// ticks included, from the minimum bid up to the ceiling. It stays as the
// oracle Advise and AdviseSurface.Lookup must reproduce bit for bit.
func scanAdvise(p *Predictor, d time.Duration) (Quote, error) {
	if d <= 0 {
		return Quote{}, fmt.Errorf("core: non-positive duration %v", d)
	}
	bid0, ok := p.MinBid()
	if !ok {
		return Quote{}, fmt.Errorf("core: no price history")
	}
	maxSeen := 0.0
	for _, v := range p.hist() {
		if v > maxSeen {
			maxSeen = v
		}
	}
	ceil := ceiling(maxSeen, bid0)
	for bid := bid0; ; bid *= tableRatio {
		tb := min(spot.RoundToTick(bid), ceil)
		g, _ := p.GuaranteeFor(tb)
		last := Quote{Bid: tb, Duration: g, Probability: p.params.Probability}
		if g >= d {
			return last, nil
		}
		if tb >= ceil {
			return last, fmt.Errorf("core: cannot guarantee %v at p=%v (best: %v at bid %.4f)",
				d, p.params.Probability, last.Duration, last.Bid)
		}
	}
}

// sameTable reports where two tables first differ bit for bit, or "".
func sameTable(got, want BidTable) string {
	switch {
	case !got.At.Equal(want.At) || got.At.Location() != want.At.Location():
		return "as-of time"
	case math.Float64bits(got.Probability) != math.Float64bits(want.Probability):
		return "probability"
	case len(got.Points) != len(want.Points):
		return "point count"
	}
	for i := range got.Points {
		if math.Float64bits(got.Points[i].Bid) != math.Float64bits(want.Points[i].Bid) ||
			got.Points[i].Duration != want.Points[i].Duration {
			return fmt.Sprintf("point %d", i)
		}
	}
	return ""
}

// checkTable compares with the scan oracle on p both tables the code
// reads off a walk: Table's, whose walk stops at the table's last bid, and
// the one the service reads off the full advise surface.
func checkTable(t *testing.T, name string, p *Predictor) {
	t.Helper()
	want, wok := scanTable(p)
	got, ok := p.Table()
	s, sok := p.Surface()
	if ok != wok || sok != wok {
		t.Errorf("%s: Table ok=%v, Surface ok=%v, oracle ok=%v", name, ok, sok, wok)
		return
	}
	if diff := sameTable(got, want); diff != "" {
		t.Errorf("%s: Table differs from the per-bid scan at %s:\n got  %+v\n want %+v", name, diff, got, want)
	}
	if diff := sameTable(s.Table(p.Now()), want); diff != "" {
		t.Errorf("%s: the surface's table differs from the per-bid scan at %s", name, diff)
	}
}

// TestTableMatchesScanAcrossCatalog reads every catalog combo's table off
// the advise walk at 30 and 90 days of history, for both published
// probabilities, and requires the per-bid scan's exact bytes. Under the
// race detector, which finds nothing in these single-goroutine scans, it
// checks every 8th combo.
func TestTableMatchesScanAcrossCatalog(t *testing.T) {
	const day = 24 * 12
	combos := spot.Combos()
	if raceEnabled {
		var every8th []spot.Combo
		for i := 0; i < len(combos); i += 8 {
			every8th = append(every8th, combos[i])
		}
		combos = every8th
	}
	work := make(chan spot.Combo)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				s, err := pricegen.Generator{Seed: 21}.Series(c, t0, 90*day)
				if err != nil {
					t.Error(err)
					continue
				}
				for _, prob := range []float64{0.95, 0.99} {
					p, err := NewPredictor(Params{Probability: prob}, t0)
					if err != nil {
						t.Error(err)
						continue
					}
					for i, v := range s.Prices {
						p.Observe(v)
						if n := i + 1; n == 30*day || n == 90*day {
							checkTable(t, c.String(), p)
						}
					}
				}
			}
		}()
	}
	for _, c := range combos {
		work <- c
	}
	close(work)
	wg.Wait()
}

// checkWalk is checkTable plus Advise and the surface's Lookup against
// the escalation oracle, at one step, at every guarantee the walk makes
// and one step either side of it, and far beyond the best.
func checkWalk(t *testing.T, name string, p *Predictor) {
	t.Helper()
	checkTable(t, name, p)
	s, ok := p.Surface()
	if !ok {
		return
	}
	durations := []time.Duration{s.Step, 10 * 365 * 24 * time.Hour}
	for _, g := range s.Guar {
		for k := max(int(g)-1, 1); k <= int(g)+1; k++ {
			durations = append(durations, time.Duration(k)*s.Step)
		}
	}
	for _, d := range durations {
		want, wantErr := scanAdvise(p, d)
		got, err := p.Advise(d)
		if got != want || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("%s d=%v: Advise (%+v, %v) != scan (%+v, %v)", name, d, got, err, want, wantErr)
		}
		q, qok := s.Lookup(d)
		switch {
		case qok != (wantErr == nil):
			t.Errorf("%s d=%v: Lookup ok=%v, scan error %v", name, d, qok, wantErr)
		case qok && q != want:
			t.Errorf("%s d=%v: Lookup %+v != scan %+v", name, d, q, want)
		case !qok && s.CannotGuarantee(d).Error() != wantErr.Error():
			t.Errorf("%s d=%v: refusal %q != scan %q", name, d, s.CannotGuarantee(d), wantErr)
		}
	}
}

// observeAll feeds prices to a fresh predictor at probability prob.
func observeAll(t *testing.T, prob float64, prices []float64) *Predictor {
	t.Helper()
	p, err := NewPredictor(testParams(prob), t0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range prices {
		p.Observe(v)
	}
	return p
}

// spiky is 6000 prices on the two lowest rungs of a ladder at $0.0100,
// with every 1000th replaced by the next of spikes in turn: too rare to
// move the minimum bid, so the walk's bids do not depend on their values.
func spiky(spikes ...float64) []float64 {
	rng := rand.New(rand.NewSource(9))
	prices := make([]float64, 6000)
	for i := range prices {
		prices[i] = spot.FromTicks(100 + rng.Intn(2))
		if i%1000 == 500 {
			prices[i] = spikes[(i/1000)%len(spikes)]
		}
	}
	return prices
}

// TestTableMatchesScanEdges holds the walk's table, Advise and Lookup
// bit-identical to the per-bid scans where reusing a scan could go wrong:
// bids exactly at and strictly between retained prices, every bid above
// the highest price (a constant series is one such), and a one-entry walk
// whose minimum bid lies above 1.25x the highest price.
func TestTableMatchesScanEdges(t *testing.T) {
	for _, prob := range []float64{0.95, 0.99} {
		// Spikes placed exactly on the third and sixth walk bids: the walk
		// scans at the first bid, reuses it up to the third, scans again
		// at the fourth and reuses that up to the sixth.
		probe := observeAll(t, prob, spiky(0.05))
		ps, _ := probe.Surface()
		if len(ps.Bids) < 8 {
			t.Fatalf("p=%v: probe walk has only %d entries", prob, len(ps.Bids))
		}
		at2, at5 := spot.FromTicks(int(ps.Bids[2])), spot.FromTicks(int(ps.Bids[5]))
		p := observeAll(t, prob, spiky(at2, at5, 0.05))
		var s *AdviseSurface
		if n := scansDuring(t, func() { s, _ = p.Surface() }); n != 4 {
			t.Errorf("p=%v: %d scans, want 4 (up to %v, up to %v, up to %v, above)", prob, n, at2, at5, 0.05)
		}
		for _, i := range []int{1, 2, 4, 5} {
			if s.Bids[i] != ps.Bids[i] {
				t.Fatalf("p=%v: spikes moved walk bid %d: %d, was %d", prob, i, s.Bids[i], ps.Bids[i])
			}
		}
		if !(spot.FromTicks(int(s.Bids[1])) > spot.FromTicks(101) && spot.FromTicks(int(s.Bids[1])) < at2) {
			t.Fatalf("p=%v: walk bid %d does not lie strictly between the rung and the spike at %v", prob, s.Bids[1], at2)
		}
		checkWalk(t, "bids at and between retained prices", p)

		// Every bid above the highest price: one scan serves the walk.
		high := observeAll(t, prob, nil)
		for i := range 6000 {
			high.Observe(spot.FromTicks(1000 + i%2))
		}
		if n := scansDuring(t, func() { s, _ = high.Surface() }); n != 1 || len(s.Bids) < 2 {
			t.Errorf("p=%v: %d scans for %d entries, want 1 for several", prob, n, len(s.Bids))
		}
		if b := spot.FromTicks(int(s.Bids[0])); !(b > 0.1001) {
			t.Fatalf("p=%v: minimum bid %v does not exceed the highest price", prob, b)
		}
		checkWalk(t, "every bid above the highest price", high)

		flat := observeAll(t, prob, nil)
		for range 3000 {
			flat.Observe(0.05)
		}
		if n := scansDuring(t, func() { s, _ = flat.Surface() }); n != 1 || len(s.Bids) < 2 {
			t.Errorf("p=%v: constant series: %d scans for %d entries, want 1 for several", prob, n, len(s.Bids))
		}
		checkWalk(t, "constant series", flat)

		tiny := observeAll(t, prob, nil)
		rng := rand.New(rand.NewSource(5))
		for range 3000 {
			tiny.Observe(spot.FromTicks(1 + rng.Intn(2)))
		}
		bid0, _ := tiny.MinBid()
		if !(bid0 > 1.25*2*spot.PriceTick) {
			t.Fatalf("p=%v: minimum bid %v does not exceed 1.25x the highest price", prob, bid0)
		}
		if s, _ := tiny.Surface(); len(s.Bids) != 1 {
			t.Errorf("p=%v: walk has %d entries, want only the minimum bid", prob, len(s.Bids))
		}
		checkWalk(t, "minimum bid above ceiling", tiny)
	}
}
