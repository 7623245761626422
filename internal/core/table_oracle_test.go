package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

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

// TestTableMatchesScanEdges covers the two degenerate walks: a minimum bid
// above 1.25x the highest price, where the ceiling is the minimum bid and
// every other table bid lies above it, and a constant series.
func TestTableMatchesScanEdges(t *testing.T) {
	for _, prob := range []float64{0.95, 0.99} {
		tiny, err := NewPredictor(testParams(prob), t0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 3000; i++ {
			tiny.Observe(spot.FromTicks(1 + rng.Intn(2)))
		}
		bid0, _ := tiny.MinBid()
		if !(bid0 > 1.25*2*spot.PriceTick) {
			t.Fatalf("p=%v: minimum bid %v does not exceed 1.25x the highest price", prob, bid0)
		}
		if s, _ := tiny.Surface(); len(s.Bids) != 1 {
			t.Errorf("p=%v: walk has %d entries, want only the minimum bid", prob, len(s.Bids))
		}
		checkTable(t, "minimum bid above ceiling", tiny)

		flat, err := NewPredictor(testParams(prob), t0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			flat.Observe(0.05)
		}
		checkTable(t, "constant series", flat)
	}
}
