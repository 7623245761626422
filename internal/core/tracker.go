package core

import (
	"math"
	"sync"

	"github.com/drafts-go/drafts/internal/qbets"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/stats"
)

// levelTracker maintains, online, the bid-survival duration sample for one
// fixed bid level (step 2 of the DrAFTS methodology, §3.2).
//
// Every grid point i at which the market price is below the level starts a
// survival episode ("the prediction is based on the conditional
// probability that the price allows the instance to run in the first
// place"). The episode resolves at the first later grid point whose price
// reaches the level, contributing the duration (in steps) to the sample.
// Episodes still unresolved at analysis time are right-censored and enter
// at their observed-so-far length — the conservative direction for a lower
// bound, since the true duration can only be longer.
//
// For a fixed level, the unresolved episodes are exactly the contiguous
// run of starts since the last price crossing, so censored face values are
// always {1, 2, ..., m}; this makes rank queries over the union of
// resolved and censored durations O(log^2 n).
type levelTracker struct {
	level    float64
	resolved *qbets.FenwickStore // resolved durations, in grid steps
	r        int                 // first pending (unresolved) start index
	t        int                 // last observed grid index; -1 before any
	window   int                 // only episodes starting within the last window steps count; 0 = unlimited
	rank     stats.RankCursor    // order-statistic rank of the bound, reused as the sample grows

	// queue of resolved episodes in start order, for window eviction.
	queue []episode
	qhead int
}

type episode struct {
	start int32
	dur   int32
}

// newLevelTracker tracks one bid level; its bound is the lower
// c-confidence bound on the qd-quantile of the survival durations.
func newLevelTracker(level float64, window int, qd, c float64) *levelTracker {
	return &levelTracker{
		level:    level,
		resolved: qbets.NewFenwickStore(1, 256),
		t:        -1,
		window:   window,
		rank:     durationRank(qd, c),
	}
}

// durationRank returns the rank cursor for the lower c-confidence bound on
// the qd-quantile: LowerBoundIndex(n, qd, c) is UpperBoundIndex(n, 1-qd, c).
func durationRank(qd, c float64) stats.RankCursor { return stats.NewRankCursor(1-qd, c) }

// observe feeds the price at grid index i (indices must arrive in order).
func (lt *levelTracker) observe(i int, price float64) {
	if price >= lt.level {
		// Crossing: resolve every pending start with its survival length.
		for s := lt.r; s < i; s++ {
			lt.resolved.Insert(float64(i - s))
			lt.queue = append(lt.queue, episode{start: int32(s), dur: int32(i - s)})
		}
		lt.r = i + 1 // index i itself cannot start an episode
	}
	lt.t = i
	if lt.window > 0 {
		horizon := i - lt.window
		for lt.qhead < len(lt.queue) && int(lt.queue[lt.qhead].start) < horizon {
			lt.resolved.Remove(float64(lt.queue[lt.qhead].dur))
			lt.qhead++
		}
		if lt.qhead > len(lt.queue)/2 && lt.qhead > 1024 {
			lt.queue = append(lt.queue[:0], lt.queue[lt.qhead:]...)
			lt.qhead = 0
		}
	}
}

// effR is the first pending start index inside the retention window.
func (lt *levelTracker) effR() int {
	r := lt.r
	if lt.window > 0 {
		if h := lt.t - lt.window; h > r {
			r = h
		}
	}
	return r
}

// sampleSize returns resolved plus censored episode counts. The start at
// the current instant carries no information and is excluded.
func (lt *levelTracker) sampleSize() (resolved, censored int) {
	resolved = lt.resolved.Len()
	censored = lt.t - lt.effR()
	if censored < 0 {
		censored = 0
	}
	return resolved, censored
}

// countAtMost counts union sample values <= v steps.
func (lt *levelTracker) countAtMost(v int) int {
	_, m := lt.sampleSize()
	pending := v
	if pending > m {
		pending = m
	}
	if pending < 0 {
		pending = 0
	}
	return lt.resolved.CountAtMost(float64(v)) + pending
}

// bound returns the duration lower bound in grid steps at the tracker's
// quantile and confidence. When the sample is too small for the binomial
// bound to exist, the sample minimum serves as the conservative warm-up
// value. A zero return with ok=true means nothing can be promised.
func (lt *levelTracker) bound() (steps int, ok bool) {
	n, m := lt.sampleSize()
	total := n + m
	if total == 0 {
		return 0, false
	}
	k, exists := lt.rank.Index(total)
	if !exists {
		k = 1 // warm-up: the sample minimum
	}
	// Binary search the smallest v with countAtMost(v) >= k. Durations are
	// bounded by the observed span lt.t+1.
	lo, hi := 1, lt.t+1
	for lo < hi {
		mid := (lo + hi) / 2
		if lt.countAtMost(mid) >= k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// scanScratch pools the per-call episode-count buffer of durationBoundScan.
// A table build scans once per bid level over a window of up to three
// months of ticks (~26k ints, ~200 KiB); without pooling every refresh
// worker would allocate and discard megabytes of count buffers per combo.
// The pool is per-P under the hood, so the refresh fan-out's workers reuse
// their own scratch without contention. Pooling is invisible to results:
// the buffer is fully re-zeroed before use.
var scanScratch = sync.Pool{New: func() any { return new([]int) }}

// durationBoundScan is the single-shot equivalent of a levelTracker: the
// duration lower bound (in grid steps) for a fixed bid level over
// prices[0..len-1], censored at the end of the slice, with the rank taken
// from the durationRank cursor. It runs in O(n) time with pooled O(n)
// scratch space.
//
// The scan tests only price >= level, so it also reports next, the
// smallest price at or above level (+Inf when none is): every level in
// (level, next] selects the same prices and gets the same bound. A non-nil
// hi receives the highest price, at the cost of one more comparison per
// price; only the guarantee walk's first scan asks for it.
func durationBoundScan(prices []float64, level float64, rank *stats.RankCursor, hi *float64) (steps int, next float64, ok bool) {
	n := len(prices)
	if n == 0 {
		return 0, math.Inf(1), false
	}
	mDurationScans.Load().Inc()
	// cnt[d] = number of resolved episodes with duration d.
	bufp := scanScratch.Get().(*[]int)
	defer scanScratch.Put(bufp)
	cnt := *bufp
	if cap(cnt) < n+1 {
		cnt = make([]int, n+1)
		*bufp = cnt
	} else {
		cnt = cnt[:n+1]
		clear(cnt)
	}
	var resolved, r int
	if hi == nil {
		resolved, r, next = countEpisodes(prices, level, cnt)
	} else {
		resolved, r, next, *hi = countEpisodesMax(prices, level, cnt)
	}
	m := n - 1 - r // censored episodes, face values {1..m}
	if m < 0 {
		m = 0
	}
	if m > 0 {
		mCensoredEpisodes.Load().Add(uint64(m))
	}
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
	// Unreachable: acc reaches total >= k by d = n.
	return n, next, true
}

// countEpisodes adds to cnt the durations of the episodes that resolve at
// level: a price at or above level at index i resolves every pending
// start s in [r, i) with duration i-s. It returns the number resolved, the
// first pending start r and next, the smallest price at or above level.
func countEpisodes(prices []float64, level float64, cnt []int) (resolved, r int, next float64) {
	next = math.Inf(1)
	for i, p := range prices {
		if p >= level {
			for s := r; s < i; s++ {
				cnt[i-s]++
			}
			resolved += i - r
			r = i + 1
			next = min(next, p)
		}
	}
	return resolved, r, next
}

// countEpisodesMax is countEpisodes that also returns the highest price.
func countEpisodesMax(prices []float64, level float64, cnt []int) (resolved, r int, next, hi float64) {
	next = math.Inf(1)
	for i, p := range prices {
		if p > hi {
			hi = p
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
	return resolved, r, next, hi
}

// priceQBETSConfig builds the QBETS configuration for the price series
// (step 1): an upper bound on the sqrt(p)-quantile, backed by the
// tick-level store since Spot prices are exact tick multiples that
// revisit a few ladder rungs.
func priceQBETSConfig(p Params) qbets.Config {
	return qbets.Config{
		Kind:       qbets.UpperBound,
		Quantile:   p.PriceQuantile(),
		Confidence: p.Confidence,
		MaxHistory: p.MaxHistory,
		NewStore: func() qbets.OrderStats {
			return qbets.NewLevelStore(spot.PriceTick)
		},
	}
}

// minBid converts a price upper bound into the minimum bid by adding one
// price tick (§3.2: "DrAFTS adds $0.0001 ... to each upper bound
// prediction so that it must be larger than the quoted market price").
func minBid(upper float64) float64 {
	b := spot.RoundToTick(upper) + spot.PriceTick
	// Guard against float drift pulling the bid to or below the bound.
	for b <= upper {
		b += spot.PriceTick
	}
	return spot.RoundToTick(b)
}

// geometricGrid builds the absolute bid grid [lo..hi] with multiplicative
// spacing ratio, tick-aligned and deduplicated. The grid is capped at
// maxGridLevels entries to bound memory on extreme price ranges.
const maxGridLevels = 512

func geometricGrid(lo, hi, ratio float64) []float64 {
	if lo < spot.PriceTick {
		lo = spot.PriceTick
	}
	if hi < lo {
		hi = lo
	}
	var grid []float64
	last := math.Inf(-1)
	for v, i := lo, 0; i < maxGridLevels; i++ {
		tv := spot.RoundToTick(v)
		if tv <= last {
			tv = spot.RoundToTick(last + spot.PriceTick)
		}
		if tv > hi {
			break
		}
		grid = append(grid, tv)
		last = tv
		v *= ratio
	}
	if len(grid) == 0 || grid[len(grid)-1] < hi {
		grid = append(grid, spot.RoundToTick(hi))
	}
	return grid
}
