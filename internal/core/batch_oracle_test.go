package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
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
//
// Batch kept one per grid level before its run trackers; it stays as
// part of oracleTables.
type levelTracker struct {
	level    float64
	resolved []int            // 1-based Fenwick tree of resolved durations, in grid steps
	n        int              // resolved durations held
	r        int              // first pending (unresolved) start index
	t        int              // last observed grid index; -1 before any
	window   int              // only episodes starting within the last window steps count; 0 = unlimited
	rank     *stats.RankTable // order-statistic rank of the bound

	// queue of resolved episodes in start order, for window eviction.
	queue []episode
	qhead int
}

type episode struct {
	start int32
	dur   int32
}

// newLevelTracker tracks one bid level over a series at most ticks grid
// points long; its bound is the lower c-confidence bound on the
// qd-quantile of the survival durations.
func newLevelTracker(level float64, ticks, window int, qd, c float64) *levelTracker {
	return &levelTracker{
		level:    level,
		resolved: make([]int, ticks+1),
		t:        -1,
		window:   window,
		rank:     durationRank(qd, c),
	}
}

// observe feeds the price at grid index i (indices must arrive in order).
func (lt *levelTracker) observe(i int, price float64) {
	if price >= lt.level {
		// Crossing: resolve every pending start with its survival length.
		for s := lt.r; s < i; s++ {
			lt.addResolved(i-s, 1)
			lt.queue = append(lt.queue, episode{start: int32(s), dur: int32(i - s)})
		}
		lt.r = i + 1 // index i itself cannot start an episode
	}
	lt.t = i
	if lt.window > 0 {
		horizon := i - lt.window
		for lt.qhead < len(lt.queue) && int(lt.queue[lt.qhead].start) < horizon {
			lt.addResolved(int(lt.queue[lt.qhead].dur), -1)
			lt.qhead++
		}
		if lt.qhead > len(lt.queue)/2 && lt.qhead > 1024 {
			lt.queue = append(lt.queue[:0], lt.queue[lt.qhead:]...)
			lt.qhead = 0
		}
	}
}

// addResolved adds delta occurrences of a resolved duration of d steps.
func (lt *levelTracker) addResolved(d, delta int) {
	lt.n += delta
	for i := d; i < len(lt.resolved); i += i & -i {
		lt.resolved[i] += delta
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
	resolved = lt.n
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
	resolved := 0
	for i := min(v, len(lt.resolved)-1); i > 0; i -= i & -i {
		resolved += lt.resolved[i]
	}
	return resolved + pending
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

// oracleTables is Batch.Tables as it was built before the run trackers:
// one levelTracker per grid level, each fed every tick, and an exact
// duration scan over the window for each query's minimum bid. It stays as
// the oracle Batch.Tables must reproduce bit for bit.
func oracleTables(b *Batch, queries []int) ([]BidTable, error) {
	params, err := b.Params.withDefaults()
	if err != nil {
		return nil, err
	}
	s := b.Series
	if s == nil || s.Len() == 0 {
		return nil, fmt.Errorf("core: batch needs a non-empty series")
	}
	if !(b.MaxBid > 0) {
		return nil, fmt.Errorf("core: batch needs a positive MaxBid")
	}
	for qi, q := range queries {
		if q < 0 || q >= s.Len() {
			return nil, fmt.Errorf("core: query index %d outside series of %d points", q, s.Len())
		}
		if qi > 0 && q <= queries[qi-1] {
			return nil, fmt.Errorf("core: query indices must be strictly ascending")
		}
	}

	// Absolute bid grid: from one tick above the minimum price observed
	// before the first query (no bid below that can be quoted as a
	// minimum bid there) up to MaxBid. Anchoring on pre-query data only
	// keeps every table a pure function of its own past; should prices
	// later sink below the anchor, the momentary minimum-bid entry —
	// always computed exactly — still leads the table.
	anchorEnd := s.Len()
	if len(queries) > 0 {
		anchorEnd = queries[0] + 1
	}
	lo := math.Inf(1)
	for _, p := range s.Prices[:anchorEnd] {
		if p < lo {
			lo = p
		}
	}
	qd, c := params.DurationQuantile(), params.Confidence
	grid := geometricGrid(lo+spot.PriceTick, b.MaxBid, tableRatio)
	trackers := make([]*levelTracker, len(grid))
	for i, lvl := range grid {
		trackers[i] = newLevelTracker(lvl, s.Len(), params.MaxHistory, qd, c)
	}

	pricePred, err := qbets.New(priceQBETSConfig(params))
	if err != nil {
		return nil, err
	}

	minBidRank := durationRank(qd, c)
	out := make([]BidTable, 0, len(queries))
	next := 0
	for i, price := range s.Prices {
		pricePred.Observe(price)
		for _, tr := range trackers {
			tr.observe(i, price)
		}
		if next < len(queries) && queries[next] == i {
			upper, ok := pricePred.Bound()
			if !ok {
				return nil, fmt.Errorf("core: no price bound at index %d", i)
			}
			bid0 := minBid(upper)
			table := BidTable{At: s.TimeAt(i), Probability: params.Probability}

			// Exact entry for the momentary minimum bid. The scan window
			// matches the price predictor's retention.
			win := s.Prices[:i+1]
			if params.MaxHistory > 0 && len(win) > params.MaxHistory {
				win = win[len(win)-params.MaxHistory:]
			}
			if steps, _, ok := durationBoundScan(win, bid0, minBidRank, nil); ok {
				table.Points = append(table.Points, BidPoint{
					Bid:      bid0,
					Duration: time.Duration(steps) * s.Step,
				})
			} else {
				table.Points = append(table.Points, BidPoint{Bid: bid0})
			}

			for gi, lvl := range grid {
				if lvl <= bid0 {
					continue
				}
				steps, ok := trackers[gi].bound()
				pt := BidPoint{Bid: lvl}
				if ok {
					pt.Duration = time.Duration(steps) * s.Step
				}
				table.Points = append(table.Points, pt)
			}
			sort.Slice(table.Points, func(a, b int) bool { return table.Points[a].Bid < table.Points[b].Bid })
			enforceMonotone(table.Points)
			out = append(out, table)
			next++
		}
	}
	return out, nil
}

// batchShape is the backtest workload's shape: 90 days of lead, a 61-day
// request window plus 12 hours, and 300 requests spread over the window.
const (
	batchLead     = 90 * 24 * 12
	batchTicks    = batchLead + 61*24*12 + 12*12 + 2
	batchRequests = 300
)

// batchQueries spreads n ascending requests over [batchLead, s.Len()-12h)
// as the backtest does, one per stratum at a seeded offset.
func batchQueries(s *history.Series, n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	hi := s.Len() - StepsFor(12*time.Hour, s.Step) - 1
	stride := (hi - batchLead) / n
	queries := make([]int, n)
	for i := range queries {
		queries[i] = batchLead + i*stride + rng.Intn(max(1, stride))
	}
	return queries
}

// TestBatchMatchesLevelTrackerOracle requires every table Batch.Tables
// builds to equal the level-tracker oracle's bit for bit, over 3 seeds ×
// 12 combos (two of each archetype) × p ∈ {0.99, 0.95, 0.5} × MaxHistory
// ∈ {default, 1000, 30000}, 300 requests each on the backtest's 151-day
// series. The seeds run in parallel. Under the race detector, which finds
// nothing in this single-goroutine arithmetic, it checks every 8th case.
func TestBatchMatchesLevelTrackerOracle(t *testing.T) {
	perArch := map[pricegen.Archetype]int{}
	var combos []spot.Combo
	for _, c := range spot.Combos() {
		if a := pricegen.ArchetypeFor(c); perArch[a] < 2 {
			perArch[a]++
			combos = append(combos, c)
		}
	}
	if len(combos) != 12 {
		t.Fatalf("picked %d combos, want two of each of 6 archetypes", len(combos))
	}
	step := 1
	if raceEnabled {
		step = 8
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			tables, cases := 0, 0
			for _, c := range combos {
				s, err := pricegen.Generator{Seed: seed}.Series(c, t0, batchTicks)
				if err != nil {
					t.Fatal(err)
				}
				od, err := spot.ODPrice(c.Type, c.Zone.Region())
				if err != nil {
					t.Fatal(err)
				}
				queries := batchQueries(s, batchRequests, seed)
				for _, p := range []float64{0.99, 0.95, 0.5} {
					for _, w := range []int{0, 1000, 30000} {
						if cases++; (cases+int(seed))%step != 0 {
							continue
						}
						b := &Batch{Series: s, Params: Params{Probability: p, MaxHistory: w}, MaxBid: SuggestedMaxBid(s, od)}
						got, err := b.Tables(queries)
						if err != nil {
							t.Fatal(err)
						}
						want, err := oracleTables(b, queries)
						if err != nil {
							t.Fatal(err)
						}
						if msg := tablesDiffer(got, want); msg != "" {
							t.Fatalf("%v p=%v MaxHistory=%d: %s", c, p, w, msg)
						}
						tables += len(got)
					}
				}
			}
			t.Logf("%d tables equal", tables)
		})
	}
}

// tablesDiffer describes the first difference between two table lists,
// or returns "" when they are bit-identical.
func tablesDiffer(got, want []BidTable) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d tables, oracle %d", len(got), len(want))
	}
	for qi := range got {
		g, w := got[qi], want[qi]
		if !g.At.Equal(w.At) || g.Probability != w.Probability || len(g.Points) != len(w.Points) {
			return fmt.Sprintf("table %d: header or size differs: %v/%v/%d vs %v/%v/%d",
				qi, g.At, g.Probability, len(g.Points), w.At, w.Probability, len(w.Points))
		}
		for pi := range g.Points {
			gp, wp := g.Points[pi], w.Points[pi]
			if math.Float64bits(gp.Bid) != math.Float64bits(wp.Bid) || gp.Duration != wp.Duration {
				return fmt.Sprintf("table %d point %d: %v/%v, oracle %v/%v", qi, pi, gp.Bid, gp.Duration, wp.Bid, wp.Duration)
			}
		}
	}
	return ""
}

// FuzzRunTracker checks a runTracker's bound against durationBoundScan over
// prices[h..i] at every tick of a short series. Each input byte is a tick:
// its low three bits pick the price (1-8) and the rest how far the horizon
// advances, so horizons cut through runs. lvl%10 is the level: 0 lies
// below every price, and 9 (+Inf when lvl >= 100) above them all.
func FuzzRunTracker(f *testing.F) {
	f.Add([]byte{1, 1, 8, 1, 1, 1, 8, 2, 1}, uint8(4), uint16(4))
	f.Add([]byte{3, 0x43, 3, 7, 0x83, 0x21, 2, 2, 2, 5}, uint8(3), uint16(100))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(9), uint16(3))
	f.Add([]byte{8, 8, 8}, uint8(0), uint16(1))
	f.Add([]byte{2, 0xf9, 2, 0x11, 2, 2, 6, 0x08, 1, 1, 1}, uint8(5), uint16(2))
	f.Fuzz(func(t *testing.T, ticks []byte, lvl uint8, window uint16) {
		if len(ticks) > 400 {
			ticks = ticks[:400]
		}
		level := float64(lvl % 10)
		if lvl%10 == 9 && lvl >= 100 {
			level = math.Inf(1)
		}
		w := int(window)%(len(ticks)+2) + 1
		const qd, c = 0.1, 0.9
		tr := newRunTracker(w, qd, c)
		prices := make([]float64, len(ticks))
		h := 0
		for i, b := range ticks {
			prices[i] = float64(b&7 + 1)
			if prices[i] >= level {
				tr.cross(i)
			}
			h = max(min(h+int(b>>3), i), i-w)
			got, gok := tr.bound(i, h)
			rank := durationRank(qd, c)
			want, _, wok := durationBoundScan(prices[h:i+1], level, rank, nil)
			if got != want || gok != wok {
				t.Fatalf("tick %d horizon %d window %d level %v: tracker %d,%v, scan %d,%v (prices %v)",
					i, h, w, level, got, gok, want, wok, prices[:i+1])
			}
		}
	})
}

// BenchmarkBatchTables times Batch.Tables at the backtest workload's
// shape — 6 combos, 300 requests, 90 days of lead and a 61-day window —
// at p=0.99; BenchmarkBatchTablesOracle times the level-tracker oracle on
// the same input, for comparison of ns/op and B/op.
func BenchmarkBatchTables(b *testing.B)       { benchmarkBatch(b, (*Batch).Tables) }
func BenchmarkBatchTablesOracle(b *testing.B) { benchmarkBatch(b, oracleTables) }

func benchmarkBatch(b *testing.B, tables func(*Batch, []int) ([]BidTable, error)) {
	type input struct {
		batch   *Batch
		queries []int
	}
	var inputs []input
	for _, c := range spot.Combos()[:6] {
		s, err := pricegen.Generator{Seed: 1}.Series(c, t0, batchTicks)
		if err != nil {
			b.Fatal(err)
		}
		od, err := spot.ODPrice(c.Type, c.Zone.Region())
		if err != nil {
			b.Fatal(err)
		}
		params := Params{Probability: 0.99, MaxHistory: DefaultMaxHistory}
		inputs = append(inputs, input{&Batch{Series: s, Params: params, MaxBid: SuggestedMaxBid(s, od)}, batchQueries(s, batchRequests, 1)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			if _, err := tables(in.batch, in.queries); err != nil {
				b.Fatal(err)
			}
		}
	}
}
