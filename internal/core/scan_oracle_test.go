package core

import (
	"fmt"
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

// checkScan runs the tick scan at every level and requires the float
// oracle's bound, next and maximum over kept, the window's live prices.
func checkScan(t *testing.T, what string, w *tickWindow, kept, levels []float64, rank *stats.RankTable) {
	t.Helper()
	oracle := make([]float64, len(kept))
	for i, v := range kept {
		oracle[i] = spot.FromTicks(int(windowTick(v)))
	}
	for _, level := range levels {
		var hiF float64
		wantSteps, wantNext, wantOK := durationBoundScan(oracle, level, rank, &hiF)
		steps, next, ok := windowBoundScan(w, levelTick(level), rank)
		gotNext := math.Inf(1)
		if next != noTick {
			gotNext = spot.FromTicks(int(next))
		}
		hiT := w.highest()
		if steps != wantSteps || ok != wantOK || math.Float64bits(gotNext) != math.Float64bits(wantNext) ||
			math.Float64bits(spot.FromTicks(int(hiT))) != math.Float64bits(hiF) {
			t.Fatalf("%s, level %v: scan (%d, %v, %v, max %v), oracle (%d, %v, %v, max %v)",
				what, level, steps, gotNext, ok, hiT, wantSteps, wantNext, wantOK, hiF)
		}
	}
}

// TestWindowScanMatchesOracle runs the tick scan and the float oracle over
// the same on-grid windows, at every retained price, between prices and
// beyond the highest, and requires the same bound, next and maximum.
// Windows span several chunks, start mid-chunk and hold dropped prices.
// Ladder windows, whose full chunks the scan passes on their cached
// bounds, are checked at the rungs and around them, including windows
// whose first chunk is only partly live.
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
		levels := []float64{0.0001, 10}
		for i := 0; i < 20; i++ {
			v := spot.FromTicks(int(windowTick(kept[rng.Intn(len(kept))])))
			levels = append(levels, v, spot.RoundToTick(v+spot.PriceTick))
		}
		checkScan(t, fmt.Sprintf("trial %d", trial), &w, kept, levels, rank)
	}
	limits := []int{0, 2*chunkTicks + 3, 3*chunkTicks - 17, DefaultMaxHistory}
	for trial := 0; trial < 48; trial++ {
		limit := limits[trial%len(limits)]
		n := 1 + rng.Intn(6*chunkTicks)
		if limit == DefaultMaxHistory {
			n = DefaultMaxHistory + rng.Intn(3*chunkTicks)
		}
		checkLadderWindow(t, fmt.Sprintf("ladder trial %d, limit %d, %d prices", trial, limit, n), rng, limit, n, trial%2 == 1)
	}
}

// ladderRungs are the ticks of ladderStream's price ladder.
var ladderRungs = []int{100, 200, 300, 400}

// ladderStream returns n prices in blocks of chunkTicks, which a window
// fed the stream from its start stores one per chunk. A block is constant
// on a rung, spread between two neighbouring rungs, spread over the whole
// ladder, or spread between rungs with the odd dropped price (tick 0) or
// top price (math.MaxInt32 ticks). So a full chunk lies wholly below a
// rung, wholly at or above it, or straddles it.
func ladderStream(rng *rand.Rand, n int) []float64 {
	prices := make([]float64, n)
	for b := 0; b < n; b += chunkTicks {
		block := prices[b:min(b+chunkTicks, n)]
		r := rng.Intn(len(ladderRungs) - 1)
		lo, hi := ladderRungs[r], ladderRungs[r+1]
		kind := rng.Intn(4)
		for i := range block {
			switch kind {
			case 0:
				block[i] = spot.FromTicks(lo)
			case 1:
				block[i] = spot.FromTicks(lo + rng.Intn(hi-lo))
			case 2:
				block[i] = spot.FromTicks(ladderRungs[0]/2 + rng.Intn(ladderRungs[len(ladderRungs)-1]))
			default:
				switch rng.Intn(100) {
				case 0:
					block[i] = math.NaN()
				case 1:
					block[i] = 5e5
				default:
					block[i] = spot.FromTicks(lo + rng.Intn(hi-lo))
				}
			}
		}
	}
	return prices
}

// ladderLevels are the bids at, one tick either side of, and between the
// ladder's rungs, with the lowest bid and the grid's top.
func ladderLevels() []float64 {
	levels := []float64{0.0001, 10, spot.FromTicks(math.MaxInt32)}
	for _, r := range ladderRungs {
		levels = append(levels, spot.FromTicks(r-1), spot.FromTicks(r), spot.FromTicks(r+1), spot.FromTicks(r+50))
	}
	return levels
}

// checkLadderWindow feeds a window of the given limit a ladder stream of n
// prices and checks its scans against the oracle. When the window's first
// chunk is only partly live, its dead slots first get the chunk's extremes
// (in odd trials) or its block's own prices (in even ones): either way a
// scan or maximum that trusted that chunk's cached bounds would disagree.
func checkLadderWindow(t *testing.T, what string, rng *rand.Rand, limit, n int, extremes bool) {
	t.Helper()
	prices := ladderStream(rng, n)
	live := n
	if limit > 0 {
		live = min(n, limit)
	}
	first := n - live // stream index of the oldest live price
	if extremes {
		for i := first - first%chunkTicks; i < first; i++ {
			prices[i] = spot.FromTicks([]int{1, 1000}[i%2])
		}
	}
	w := tickWindow{limit: limit}
	for pos := 0; pos < n; { // uneven bulk pushes
		k := min(n-pos, 1+rng.Intn(2*chunkTicks))
		w.pushPrices(prices[pos : pos+k])
		pos += k
	}
	checkScan(t, what, &w, prices[first:], ladderLevels(), durationRank(0.025, 0.99))
}

// FuzzWindowBoundScan checks the tick scan against the float oracle on
// ladder windows of any length and limit.
func FuzzWindowBoundScan(f *testing.F) {
	f.Add(int64(1), uint16(3*chunkTicks+5), uint16(2*chunkTicks+3), true)
	f.Add(int64(2), uint16(chunkTicks), uint16(0), false)
	f.Add(int64(3), uint16(5*chunkTicks), uint16(chunkTicks+1), true)
	f.Fuzz(func(t *testing.T, seed int64, n, limit uint16, extremes bool) {
		rng := rand.New(rand.NewSource(seed))
		checkLadderWindow(t, "fuzz", rng, int(limit)%(6*chunkTicks), 1+int(n)%(6*chunkTicks), extremes)
	})
}
