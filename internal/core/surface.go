package core

import (
	"fmt"
	"math"
	"time"

	"github.com/drafts-go/drafts/internal/spot"
)

// AdviseSurface is the precomputed form of Advise's bid-escalation scan
// for one (combo, probability): the full escalation sequence the scan
// would walk, materialized once at refresh time as two parallel uint32
// arrays. Bids holds the tick-aligned bid at each escalation step (strictly
// increasing — consecutive duplicate ticks from RoundToTick at tiny bids
// are collapsed, keeping the first, which is the entry the scan would
// return); Guar holds the guaranteed duration at that bid in grid steps.
// Lookup answers the same question as Advise — the first escalation
// entry whose guarantee covers the requested duration — with one binary
// search, without touching price history.
//
// Surfaces are immutable after construction. Build them only through
// (*Predictor).Surface or NewAdviseSurface; a hand-assembled literal lacks
// the internal running-max index and will not answer lookups.
type AdviseSurface struct {
	// Probability is the durability target every guarantee is made at.
	Probability float64
	// Step is the price grid period guarantees are quantized to.
	Step time.Duration
	// Bids is the escalation sequence in price ticks, strictly increasing.
	Bids []uint32
	// Guar[i] is the guaranteed duration at Bids[i], in Steps.
	Guar []uint32

	// max[i] is the running maximum of Guar[:i+1]. Guarantees are not
	// monotone in the bid, but the scan's answer — the first entry covering
	// the request — is exactly the first index where the running max
	// crosses the requested step count, which is binary-searchable.
	max []uint32
}

// Surface materializes the Advise escalation for the predictor's current
// history: the guarantee ladder. It walks the identical bid sequence —
// minimum bid, 5% escalation, tick rounding, deduplication, ceiling clamp
// at one tick above 1.25x the highest retained price — so Lookup on the
// result returns bit-identical quotes to the scan, and Table reads the
// published table off the same walk. ok is false when there is no price
// history yet (the scan would also refuse).
func (p *Predictor) Surface() (*AdviseSurface, bool) {
	s, ok := p.walk(math.Inf(1), 0)
	if ok {
		mSurfaceBuilds.Load().Inc()
	}
	return s, ok
}

// walk runs one duration scan per distinct bid from the minimum bid up to
// the ceiling, or only while the unrounded bid stays within span times the
// minimum bid. A positive cover also stops it at the first entry whose
// guarantee reaches cover. The fixed 5% ratio bounds it to ~15k entries
// even over the whole float range.
func (p *Predictor) walk(span float64, cover time.Duration) (*AdviseSurface, bool) {
	bid0, ok := p.MinBid()
	if !ok {
		return nil, false
	}
	ceiling := p.ceiling(bid0)
	limit := bid0 * span
	s := &AdviseSurface{Probability: p.params.Probability, Step: p.step}
	for bid := bid0; bid <= limit+1e-12; bid *= tableRatio {
		tb := min(spot.RoundToTick(bid), ceiling)
		tick := uint32(spot.Ticks(tb))
		if n := len(s.Bids); n == 0 || s.Bids[n-1] < tick {
			g, _ := p.GuaranteeFor(tb)
			s.Bids = append(s.Bids, tick)
			s.Guar = append(s.Guar, uint32(g/p.step))
			if cover > 0 && g >= cover {
				break
			}
		}
		if tb >= ceiling {
			break
		}
	}
	s.finish()
	return s, true
}

// Table reads the published bid table for time at off the walk: the
// minimum bid, then 5% increments up to 4x the minimum (§3.3). A bid up
// to the ceiling is a walk entry and takes its guarantee. A bid above the
// ceiling takes the ceiling's: no retained price reaches either, so every
// episode at both is censored and the duration scan returns the same
// value. Durations are made monotone non-decreasing in the bid.
func (s *AdviseSurface) Table(at time.Time) BidTable {
	t := BidTable{At: at, Probability: s.Probability}
	bid0 := spot.FromTicks(int(s.Bids[0]))
	limit := bid0 * tableSpanMult
	i := 0
	for bid := bid0; bid <= limit+1e-12; bid *= tableRatio {
		tb := spot.RoundToTick(bid)
		if n := len(t.Points); n > 0 && t.Points[n-1].Bid >= tb {
			continue
		}
		tick := uint32(spot.Ticks(tb))
		for i+1 < len(s.Bids) && s.Bids[i] < tick {
			i++
		}
		t.Points = append(t.Points, BidPoint{Bid: tb, Duration: time.Duration(s.Guar[i]) * s.Step})
	}
	enforceMonotone(t.Points)
	return t
}

// NewAdviseSurface reassembles a surface from its wire arrays (a replica
// rebuilding what the writer shipped). The arrays are retained, not copied.
// Given the arrays a writer's Surface produced, the rebuilt surface answers
// every Lookup identically.
func NewAdviseSurface(probability float64, step time.Duration, bids, guar []uint32) (*AdviseSurface, error) {
	if !(probability > 0 && probability < 1) || math.IsNaN(probability) {
		return nil, fmt.Errorf("core: surface probability %v outside (0, 1)", probability)
	}
	if step <= 0 {
		return nil, fmt.Errorf("core: non-positive surface step %v", step)
	}
	if len(bids) == 0 {
		return nil, fmt.Errorf("core: empty surface")
	}
	if len(bids) != len(guar) {
		return nil, fmt.Errorf("core: surface arrays disagree: %d bids, %d guarantees", len(bids), len(guar))
	}
	for i := 1; i < len(bids); i++ {
		if bids[i] <= bids[i-1] {
			return nil, fmt.Errorf("core: surface bids not strictly increasing at index %d", i)
		}
	}
	s := &AdviseSurface{Probability: probability, Step: step, Bids: bids, Guar: guar}
	s.finish()
	return s, nil
}

// finish builds the running-max index.
func (s *AdviseSurface) finish() {
	s.max = make([]uint32, len(s.Guar))
	var m uint32
	for i, g := range s.Guar {
		if g > m {
			m = g
		}
		s.max[i] = m
	}
}

// firstCovering returns the first index whose running-max guarantee reaches
// k steps, or -1 when none does.
func firstCovering(max []uint32, k uint32) int {
	lo, hi := 0, len(max)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if max[mid] >= k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(max) {
		return -1
	}
	return lo
}

// Lookup answers Advise's question from the surface: the quote at
// the first escalation entry guaranteeing d, bit-identical to what the scan
// would return over the same history. ok is false when d is non-positive or
// no bid up to the ceiling can guarantee it (the scan's error cases); the
// caller renders the refusal via CannotGuarantee.
//
//drafts:nonalloc
func (s *AdviseSurface) Lookup(d time.Duration) (Quote, bool) {
	mSurfaceLookups.Load().Inc()
	k := StepsFor(d, s.Step)
	if k <= 0 || len(s.Bids) == 0 {
		return Quote{}, false
	}
	i := firstCovering(s.max, uint32(k))
	if i < 0 {
		return Quote{}, false
	}
	return s.quoteAt(i), true
}

// quoteAt renders escalation entry i as a quote. At any index Lookup
// returns, Guar[i] equals the running max (the max was raised there), so
// this is the scan's exact quote.
//
//drafts:nonalloc
func (s *AdviseSurface) quoteAt(i int) Quote {
	return Quote{
		Bid:         spot.FromTicks(int(s.Bids[i])),
		Duration:    time.Duration(s.Guar[i]) * s.Step,
		Probability: s.Probability,
	}
}

// Best returns the quote at the ceiling bid — the strongest guarantee the
// surface can make, and the "best" Advise reports when refusing.
func (s *AdviseSurface) Best() Quote {
	if len(s.Bids) == 0 {
		return Quote{}
	}
	return s.quoteAt(len(s.Bids) - 1)
}

// CannotGuarantee builds the refusal for a failed Lookup, byte-identical to
// Advise's error, so surface-serving nodes render the envelope Advise
// would.
func (s *AdviseSurface) CannotGuarantee(d time.Duration) error {
	best := s.Best()
	return fmt.Errorf("core: cannot guarantee %v at p=%v (best: %v at bid %.4f)",
		d, s.Probability, best.Duration, best.Bid)
}
