package core

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/telemetry"
)

// ingestShape builds the predictors of the service's default writer: the
// first 60 catalog combos with 90 days of seed-1 history, one predictor per
// published probability. Under the race detector it keeps every 8th combo.
func ingestShape(tb testing.TB) []*Predictor {
	tb.Helper()
	const day = 24 * 12
	combos := spot.Combos()[:60]
	if raceEnabled {
		var every8th []spot.Combo
		for i := 0; i < len(combos); i += 8 {
			every8th = append(every8th, combos[i])
		}
		combos = every8th
	}
	probs := []float64{0.95, 0.99}
	preds := make([]*Predictor, len(combos)*len(probs))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range work {
				s, err := pricegen.Generator{Seed: 1}.Series(combos[ci], t0, 90*day)
				if err != nil {
					tb.Error(err)
					continue
				}
				for pi, prob := range probs {
					p, err := NewPredictor(Params{Probability: prob}, t0)
					if err != nil {
						tb.Error(err)
						continue
					}
					p.ObserveSeries(s)
					preds[ci*len(probs)+pi] = p
				}
			}
		}()
	}
	for ci := range combos {
		work <- ci
	}
	close(work)
	wg.Wait()
	if tb.Failed() {
		tb.FailNow()
	}
	return preds
}

// nextRetained is the smallest retained price at or above bid, or +Inf.
func nextRetained(p *Predictor, bid float64) float64 {
	next := math.Inf(1)
	for _, v := range p.hist() {
		if v >= bid && v < next {
			next = v
		}
	}
	return next
}

// scansDuring returns how many duration scans f runs, registering the
// predictor counters for the rest of the test if they are off.
func scansDuring(t *testing.T, f func()) uint64 {
	t.Helper()
	if mDurationScans.Load() == nil {
		RegisterMetrics(telemetry.NewRegistry())
		t.Cleanup(func() { RegisterMetrics(nil) })
	}
	c := mDurationScans.Load()
	before := c.Value()
	f()
	return c.Value() - before
}

// TestWalkScansOncePerLevel counts the duration scans each Surface runs
// and requires one per distinct value of nextRetained over the walk's
// bids: entries whose bids reach the same retained prices share a scan.
func TestWalkScansOncePerLevel(t *testing.T) {
	var entries, groups int
	for i, p := range ingestShape(t) {
		var s *AdviseSurface
		var ok bool
		got := scansDuring(t, func() { s, ok = p.Surface() })
		if !ok {
			t.Fatalf("predictor %d: no surface", i)
		}
		levels := map[uint64]bool{}
		for _, b := range s.Bids {
			levels[math.Float64bits(nextRetained(p, spot.FromTicks(int(b))))] = true
		}
		if got != uint64(len(levels)) {
			t.Errorf("predictor %d: %d scans for %d entries, want one per distinct next price (%d)",
				i, got, len(s.Bids), len(levels))
		}
		entries += len(s.Bids)
		groups += len(levels)
	}
	t.Logf("%d walk entries in %d distinct-level groups", entries, groups)
}

// TestDurationBoundScanNextAndMax checks the scan's two by-products on a
// generated series: next is the smallest price at or above the level, hi
// the highest price, and asking for hi changes neither the bound nor next.
func TestDurationBoundScanNextAndMax(t *testing.T) {
	s := mustGen(t, spot.Combo{Zone: "us-west-1a", Type: "c3.2xlarge"}, 4000)
	top := 0.0
	for _, v := range s.Prices {
		top = max(top, v)
	}
	for _, level := range []float64{0.05, 0.12, 0.3, 0.8, top, 2 * top} {
		rank := durationRank(0.025, 0.99)
		steps, next, ok := durationBoundScan(s.Prices, level, rank, nil)
		var hi float64
		steps2, next2, ok2 := durationBoundScan(s.Prices, level, rank, &hi)
		if steps != steps2 || ok != ok2 || math.Float64bits(next) != math.Float64bits(next2) {
			t.Errorf("level %v: asking for the maximum changed the scan: (%d, %v, %v) vs (%d, %v, %v)",
				level, steps, next, ok, steps2, next2, ok2)
		}
		want := math.Inf(1)
		for _, v := range s.Prices {
			if v >= level {
				want = min(want, v)
			}
		}
		if math.Float64bits(next) != math.Float64bits(want) {
			t.Errorf("level %v: next = %v, want %v", level, next, want)
		}
		if math.Float64bits(hi) != math.Float64bits(top) {
			t.Errorf("level %v: hi = %v, want %v", level, hi, top)
		}
	}
}

// BenchmarkWalkIngestShape times one Surface per predictor of the
// service's default writer: the tables.build stage of a refresh, single
// threaded.
func BenchmarkWalkIngestShape(b *testing.B) {
	preds := ingestShape(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range preds {
			if _, ok := p.Surface(); !ok {
				b.Fatal("no surface")
			}
		}
	}
}

// TestSurfaceAllocs pins the allocations of one Surface of a warm 90-day
// predictor at the surface and its growing arrays: the walk's duration
// scans take their run-length buffers from scanScratch, so a scan that
// allocated would raise the count by at least one per scan.
func TestSurfaceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	s, err := pricegen.Generator{Seed: 1}.Series(spot.Combo{Zone: "us-east-1b", Type: "c3.8xlarge"}, t0, DefaultMaxHistory+100)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(Params{Probability: 0.99}, t0)
	if err != nil {
		t.Fatal(err)
	}
	p.ObserveSeries(s)
	scans := scansDuring(t, func() { p.Surface() })
	const want = 14 // measured: the surface, its running maximum and the appends of 44 entries
	if allocs := testing.AllocsPerRun(50, func() { p.Surface() }); allocs > want {
		t.Fatalf("Surface allocates %v times, want at most %d (%d scans)", allocs, want, scans)
	}
	t.Logf("%d scans", scans)
}
