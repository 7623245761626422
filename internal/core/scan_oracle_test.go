package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/stats"
)

// durationBoundScan is windowBoundScan over float prices: the duration
// lower bound (in grid steps) for a fixed bid level over prices, censored
// at the end of the slice, with next the smallest price at or above level
// (+Inf when none is) and a non-nil hi receiving the highest price. It is
// the oracle the tick scan, the run trackers and Batch are checked
// against.
func durationBoundScan(prices []float64, level float64, rank *stats.RankTable, hi *float64) (steps int, next float64, ok bool) {
	n := len(prices)
	next = math.Inf(1)
	if n == 0 {
		return 0, next, false
	}
	cnt := make([]int, n+1) // cnt[d] = number of resolved episodes with duration d
	var resolved, r int
	for i, p := range prices {
		if hi != nil && p > *hi {
			*hi = p
		}
		if p >= level {
			for s := r; s < i; s++ {
				cnt[i-s]++
			}
			resolved += i - r
			r = i + 1
			next = min(next, p)
		}
	}
	m := max(n-1-r, 0) // censored episodes, face values {1..m}
	total := resolved + m
	if total == 0 {
		return 0, next, false
	}
	k, exists := rank.Index(total)
	if !exists {
		k = 1
	}
	acc := 0
	for d := 1; d <= n; d++ {
		acc += cnt[d]
		if d <= m {
			acc++
		}
		if acc >= k {
			return d, next, true
		}
	}
	return n, next, true
}

// ticks returns the window's ticks, oldest first.
func (w *tickWindow) ticks() []uint32 {
	out := make([]uint32, 0, w.n)
	for k := range w.chunks {
		out = append(out, w.seg(k)...)
	}
	return out
}

// hist returns the predictor's retained window as prices: each tick's
// spot.FromTicks, 0 for a dropped price's slot.
func (p *Predictor) hist() []float64 {
	out := make([]float64, 0, p.win.n)
	for _, t := range p.win.ticks() {
		out = append(out, spot.FromTicks(int(t)))
	}
	return out
}

// TestWindowScanMatchesOracle runs the tick scan and the float oracle over
// the same on-grid windows, at every retained price, between prices and
// beyond the highest, and requires the same bound, next and maximum.
// Windows span several chunks, start mid-chunk and hold dropped prices.
func TestWindowScanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rank := durationRank(0.025, 0.99)
	for trial := 0; trial < 40; trial++ {
		prices := randomPrices(rng, 1+rng.Intn(4*chunkTicks))
		for i := range prices {
			if rng.Intn(200) == 0 {
				prices[i] = math.NaN()
			}
		}
		w := tickWindow{limit: []int{0, chunkTicks - 1, 2*chunkTicks + 3}[trial%3]}
		w.pushPrices(prices)
		kept := prices[max(0, len(prices)-w.n):]
		oracle := make([]float64, len(kept))
		for i, v := range kept {
			oracle[i] = spot.FromTicks(int(windowTick(v)))
		}
		levels := []float64{0.0001, 10}
		for i := 0; i < 20; i++ {
			v := oracle[rng.Intn(len(oracle))]
			levels = append(levels, v, spot.RoundToTick(v+spot.PriceTick))
		}
		for _, level := range levels {
			var hiF float64
			wantSteps, wantNext, wantOK := durationBoundScan(oracle, level, rank, &hiF)
			var hiT uint32
			steps, next, ok := windowBoundScan(&w, levelTick(level), rank, &hiT)
			gotNext := math.Inf(1)
			if next != noTick {
				gotNext = spot.FromTicks(int(next))
			}
			if steps != wantSteps || ok != wantOK || math.Float64bits(gotNext) != math.Float64bits(wantNext) ||
				math.Float64bits(spot.FromTicks(int(hiT))) != math.Float64bits(hiF) {
				t.Fatalf("trial %d level %v: scan (%d, %v, %v, max %v), oracle (%d, %v, %v, max %v)",
					trial, level, steps, gotNext, ok, hiT, wantSteps, wantNext, wantOK, hiF)
			}
		}
	}
}
