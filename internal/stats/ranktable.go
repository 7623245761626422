package stats

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// RankTable answers, for one fixed (q, c), the QBETS rank question: the
// deepest rank k such that the k-th largest of n i.i.d. observations is an
// upper c-confidence bound on their q-quantile, the largest k with
// BinomialSF(k, n, 1-q) >= c (none when even k = 1 falls short). It reads
// k off breakpoints computed once per process and shared by every caller,
// which is how every online QBETS consumer asks: each predictor, duration
// tracker and guarantee walk looks up the rank of its current sample size,
// ticks on end, always for the same few (q, c).
//
// The rank k(n) never decreases in n and rises by at most 1 per unit of
// n: adding one observation can lift the count above the quantile by at
// most one. So the table stores only where it rises: bp[k-1] is the
// smallest n whose rank reaches k, the smallest n with
// BinomialSF(k, n, 1-q) >= c. A lookup is a binary search over the
// breakpoints, with no incomplete-beta evaluation.
//
// The table grows on demand. A size beyond the sizes it covers extends it
// to at least one and a quarter times that coverage, and each new
// breakpoint is found by galloping from the previous gap (the gaps settle
// near 1/(1-q)) and then bisecting: a few evaluations per rank
// step. Lookups are lock-free reads of an immutable snapshot; a mutex
// serialises the extensions. Results are identical to a bisection over
// BinomialSF (TestRankTableMatchesUpperBoundIndex, FuzzRankTable). Get a
// table from RankTableFor; the zero value is unusable.
type RankTable struct {
	q, c float64
	mu   sync.Mutex // held while extending
	snap atomic.Pointer[rankSnap]
}

// rankSnap is one published state of a RankTable: the breakpoints of
// every rank reached at a size up to top. Extensions append beyond
// len(bp) and publish a new snapshot, so a reader's bp never changes.
type rankSnap struct {
	bp  []int
	top int
}

// minRankTop is the first coverage a table extends to: a size too small
// to be worth a second extension.
const minRankTop = 64

type rankKey struct{ q, c uint64 }

var (
	rankTables sync.Map // rankKey -> *RankTable
	noRank     = &RankTable{}
)

// RankTableFor returns the process-wide table for (q, c), keyed by the
// bits of q and c. A lower bound on the q-quantile uses RankTableFor(1-q,
// c): by the symmetry x -> -x, the k-th smallest bounds the q-quantile
// from below when the k-th largest bounds the (1-q)-quantile from above.
// For a q or c outside (0, 1) it returns a table that answers (0, false)
// for every size and stores nothing.
func RankTableFor(q, c float64) *RankTable {
	if checkQuantileArgs(1, q, c) != nil {
		return noRank
	}
	key := rankKey{math.Float64bits(q), math.Float64bits(c)}
	if t, ok := rankTables.Load(key); ok {
		return t.(*RankTable)
	}
	t, _ := rankTables.LoadOrStore(key, &RankTable{q: q, c: c})
	return t.(*RankTable)
}

// Index returns the rank for a sample of n, with ok false when no rank
// reaches confidence c. It is safe for concurrent use.
func (t *RankTable) Index(n int) (k int, ok bool) {
	if n <= 0 || t == noRank {
		return 0, false
	}
	s := t.snap.Load()
	if s == nil || n > s.top {
		s = t.extend(n)
	}
	k = sort.SearchInts(s.bp, n+1) // breakpoints at or below n
	return k, k > 0
}

// extend computes the breakpoints up to at least n and publishes them.
func (t *RankTable) extend(n int) *rankSnap {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.snap.Load()
	var bp []int
	covered := 0 // every rank reached at a size up to covered is in bp
	if s != nil {
		if n <= s.top {
			return s // another caller extended it first
		}
		bp, covered = s.bp, s.top
	}
	top := max(n, covered+covered/4, minRankTop)
	for {
		// The next rank falls short at its predecessor's breakpoint and at
		// every covered size; its gap is guessed from the last one.
		guess := MinSamplesForUpperBound(t.q, t.c)
		fail := covered
		if k := len(bp); k > 0 {
			gap := int(1 / (1 - t.q)) // the mean gap, until one is known
			if k > 1 {
				gap = bp[k-1] - bp[k-2]
			}
			guess, fail = bp[k-1]+gap, max(bp[k-1], covered)
		}
		next, found := t.breakpoint(len(bp)+1, fail, top, guess)
		if !found {
			break
		}
		bp = append(bp, next)
	}
	s = &rankSnap{bp: bp, top: top}
	t.snap.Store(s)
	return s
}

// breakpoint returns the smallest n in (fail, top] with
// BinomialSF(k, n, 1-q) >= c, galloping outward from guess and then
// bisecting; found is false when no size up to top qualifies. Rank k must
// fall short at every size up to fail.
func (t *RankTable) breakpoint(k, fail, top, guess int) (n int, found bool) {
	reaches := func(n int) bool { return BinomialSF(k, n, 1-t.q) >= t.c }
	if fail >= top {
		return 0, false
	}
	guess = min(max(guess, fail+1), top)
	// Bracket the answer in (fail, pass].
	pass := guess
	if reaches(guess) {
		for step := 1; pass-step > fail; step *= 2 {
			if !reaches(pass - step) {
				fail = pass - step
				break
			}
			pass -= step
		}
	} else {
		fail = guess
		for step := 1; ; step *= 2 {
			if fail == top {
				return 0, false
			}
			m := min(fail+step, top)
			if reaches(m) {
				pass = m
				break
			}
			fail = m
		}
	}
	for pass-fail > 1 {
		mid := fail + (pass-fail)/2
		if reaches(mid) {
			pass = mid
		} else {
			fail = mid
		}
	}
	return pass, true
}
