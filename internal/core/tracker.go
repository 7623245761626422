package core

import (
	"math"
	"sync"
	"time"

	"github.com/drafts-go/drafts/internal/qbets"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/stats"
)

// runTracker keeps, online, the bid-survival duration samples of every
// bid level that selects the same ticks as one price P of the series
// (step 2 of the DrAFTS methodology, §3.2): a level L reads the tracker of
// the smallest series price at or above L, because a price crosses L
// exactly when it crosses that price.
//
// Every tick whose price is below P starts a survival episode ("the
// prediction is based on the conditional probability that the price
// allows the instance to run in the first place"), which resolves at the
// first later tick whose price reaches P. The starts between two
// crossings form a run; a run of length L resolves into the durations
// {1, ..., L}, so the tracker stores each run once, keyed by its length,
// in a Fenwick tree of (count, sum): the number of sample values <= v is
// the sum of min(L, v) over the runs, one prefix query. Starts after the
// last crossing are right-censored and enter at their observed-so-far
// lengths, also {1, ..., m} — the conservative direction for a lower
// bound, since the true durations can only be longer.
//
// The retention window is a query argument, the horizon h: only starts at
// or after h count. Runs that end at or before h are evicted lazily, the
// one run that straddles h is truncated arithmetically, and the censored
// starts are [max(pending, h), i). Ticks touch only the trackers at or
// below their price; a query costs O(log² W) in the window length W.
type runTracker struct {
	cap  int   // longest run length a window can hold; longer keys are clamped to it
	r    int   // first pending (censored) start: one past the last crossing
	runs []run // resolved runs in time order; runs[head:] are live
	head int
	tree []node // 1-based Fenwick tree over clamped run lengths
	n    int    // runs in the tree
	sum  int    // sum of their clamped lengths
	rank *stats.RankTable
}

// run is one resolved run: the starts [start, end) that the crossing at
// end resolved.
type run struct{ start, end int32 }

// node is one Fenwick node: the count and the total length of the runs in
// its range.
type node struct{ cnt, sum int32 }

// newRunTracker returns a tracker for windows of at most window starts;
// its bound is the lower c-confidence bound on the qd-quantile of the
// survival durations. The caller decides which ticks cross it.
func newRunTracker(window int, qd, c float64) *runTracker {
	return &runTracker{cap: window, rank: durationRank(qd, c)}
}

// durationRank returns the shared rank table for the lower c-confidence
// bound on the qd-quantile: the upper bound's table at 1-qd.
func durationRank(qd, c float64) *stats.RankTable { return stats.RankTableFor(1-qd, c) }

// cross records a price at or above the tracker's at tick i (ticks must
// arrive in order): the pending starts resolve as one run.
func (t *runTracker) cross(i int) {
	if t.r < i {
		t.runs = append(t.runs, run{start: int32(t.r), end: int32(i)})
		t.add(t.key(i-t.r), 1)
	}
	t.r = i + 1 // tick i itself cannot start an episode
}

// key is the tree key of a run of length l. No window holds more than cap
// starts, so min(l, v) = min(key, v) for every v a query asks about.
func (t *runTracker) key(l int) int { return min(l, t.cap) }

// add inserts (d = 1) or removes (d = -1) one run of key k, doubling the
// tree as needed. A doubled tree keeps every old node; the only new node
// whose range reaches the old ones is the new root, which copies the old
// root.
func (t *runTracker) add(k, d int) {
	for k >= len(t.tree) {
		size := max(2*(len(t.tree)-1), 64)
		tree := make([]node, size+1)
		copy(tree, t.tree)
		if old := len(t.tree) - 1; old > 0 {
			tree[size] = t.tree[old]
		}
		t.tree = tree
	}
	for j := k; j < len(t.tree); j += j & -j {
		t.tree[j].cnt += int32(d)
		t.tree[j].sum += int32(d * k)
	}
	t.n += d
	t.sum += d * k
}

// countAtMost returns the number of tree sample values <= v: the sum of
// min(key, v) over the stored runs.
func (t *runTracker) countAtMost(v int) int {
	var cnt, sum int
	for j := min(v, len(t.tree)-1); j > 0; j &= j - 1 {
		cnt += int(t.tree[j].cnt)
		sum += int(t.tree[j].sum)
	}
	return sum + v*(t.n-cnt)
}

// guarantee is bound in time, with ticks of length step: zero when nothing
// can be promised.
func (t *runTracker) guarantee(i, h int, step time.Duration) time.Duration {
	steps, _ := t.bound(i, h)
	return time.Duration(steps) * step
}

// bound returns the duration lower bound, in ticks, for a level this
// tracker serves at tick i over the starts in [h, i), h <= i. Horizons
// must not decrease between calls. When the sample is too small for the
// binomial bound to exist, the sample minimum serves as the conservative
// warm-up value. ok is false when no episode starts in the window.
func (t *runTracker) bound(i, h int) (steps int, ok bool) {
	for t.head < len(t.runs) && int(t.runs[t.head].end) <= h {
		rn := t.runs[t.head]
		t.add(t.key(int(rn.end-rn.start)), -1)
		t.head++
	}
	if t.head > len(t.runs)/2 && t.head > 1024 {
		t.runs = append(t.runs[:0], t.runs[t.head:]...)
		t.head = 0
	}
	// The oldest live run may start before h: it counts its starts in
	// [h, end) instead of its whole key.
	var key, cut int
	if t.head < len(t.runs) {
		if rn := t.runs[t.head]; int(rn.start) < h {
			key, cut = t.key(int(rn.end-rn.start)), int(rn.end)-h
		}
	}
	m := max(i-max(t.r, h), 0) // censored starts, face values {1..m}
	total := t.sum - key + cut + m
	if total == 0 {
		return 0, false
	}
	k, exists := t.rank.Index(total)
	if !exists {
		k = 1 // warm-up: the sample minimum
	}
	// The smallest v with at least k sample values <= v; no value exceeds
	// the i-h starts the window holds.
	lo, hi := 1, i-h
	for lo < hi {
		mid := (lo + hi) / 2
		if t.countAtMost(mid)-min(key, mid)+min(cut, mid)+min(m, mid) >= k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// runScratch is a scan's pooled run-length buffers: runs holds the length
// of each run in window order, and hist counts the runs shorter than the
// rank by length. A scan clears the hist buckets it touched before it
// returns the buffers, so hist is all zeros in the pool. The pool is
// per-P under the hood, so the refresh fan-out's workers reuse their own
// buffers without contention.
type runScratch struct {
	runs []int32
	hist []int32
}

var scanScratch = sync.Pool{New: func() any { return new(runScratch) }}

// windowBoundScan is the single-shot equivalent of a runTracker: the
// duration lower bound (in grid steps) for a fixed level over the
// window's ticks, censored at the window's end, with the rank read from
// the durationRank table. A tick reaches the level when it is at or
// above it. Every tick at or above the level resolves the pending starts
// since the previous one as a run; a run of length L holds the
// durations {1, ..., L}, so the scan records one length per run and
// reads the bound from their histogram. A wholly live full chunk whose
// cached bounds put every tick below the level, or every tick at or
// above it, is passed in O(1); the others are compared tick by tick. The
// scan costs O(n) compares at worst, O(n/chunkTicks) when no chunk
// straddles the level, plus O(runs + bound) to read the bound.
//
// The scan tests only tick >= level, so it also reports next, the
// smallest tick at or above level (noTick when none is): every level in
// (level, next] selects the same ticks and gets the same bound.
func windowBoundScan(w *tickWindow, level uint32, rank *stats.RankTable) (steps int, next uint32, ok bool) {
	n := w.n
	if n == 0 {
		return 0, noTick, false
	}
	mDurationScans.Load().Inc()
	sc := scanScratch.Get().(*runScratch)
	defer scanScratch.Put(sc)
	runs := sc.runs[:0]
	next = noTick
	r, base := 0, 0 // the first pending start; the window index of seg[0]
	for k, c := range w.chunks {
		seg := w.seg(k)
		if len(seg) == chunkTicks {
			if c.hi < level {
				base += chunkTicks
				continue
			}
			if c.lo >= level {
				if r < base {
					runs = append(runs, int32(base-r))
				}
				base += chunkTicks
				r = base
				next = min(next, c.lo)
				continue
			}
		}
		for j := 0; j < len(seg); {
			if seg[j] < level {
				for j++; j < len(seg) && seg[j] < level; j++ {
				}
				continue
			}
			// A stretch of ticks at or above the level: the first closes
			// the run pending since r, the rest close empty runs.
			if i := base + j; r < i {
				runs = append(runs, int32(i-r))
			}
			for ; j < len(seg) && seg[j] >= level; j++ {
				if seg[j] < next {
					next = seg[j]
				}
			}
			r = base + j
		}
		base += len(seg)
	}
	sc.runs = runs
	m := max(n-1-r, 0) // censored episodes, face values {1..m}
	if m > 0 {
		mCensoredEpisodes.Load().Add(uint64(m))
	}
	resolved := 0
	for _, l := range runs {
		resolved += int(l)
	}
	total := resolved + m
	if total == 0 {
		return 0, next, false
	}
	k, exists := rank.Index(total)
	if !exists {
		k = 1
	}
	// acc(d) = sum over runs of min(L, d), plus min(m, d), counts the
	// durations <= d; the bound is the smallest d with acc(d) >= k. acc
	// grows by at least one per step until it reaches total >= k, so that
	// d is at most k, and only runs shorter than k change acc's slope
	// before it.
	if cap(sc.hist) < k {
		sc.hist = make([]int32, k)
	}
	hist := sc.hist[:k]
	for _, l := range runs {
		if int(l) < k {
			hist[l]++
		}
	}
	steps = k
	acc, longer := 0, len(runs) // longer: the runs of length >= d
	for d := 1; d < k; d++ {
		acc += longer
		if d <= m {
			acc++
		}
		if acc >= k {
			steps = d
			break
		}
		longer -= int(hist[d])
	}
	for _, l := range runs {
		if int(l) < k {
			hist[l] = 0
		}
	}
	return steps, next, true
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
