package qbets

import (
	"fmt"
	"math"
)

// FenwickStore is an OrderStats over values that lie on a uniform grid
// v = bucket * tick for non-negative integer buckets. Insert, Remove and
// Select are O(log m) in the number of buckets with pure array arithmetic,
// which makes it roughly an order of magnitude faster than a pointer-based
// tree for the tick-quantized data this repository processes (Spot prices
// are multiples of $0.0001; bid-survival durations are multiples of the
// 5-minute repricing period).
type FenwickStore struct {
	tick   float64
	tree   []int // 1-based Fenwick tree of bucket counts
	counts []int // plain per-bucket counts, for O(1) membership tests
	n      int   // total stored values
}

// NewFenwickStore returns an empty store for values in [0, maxValue]
// quantized to the given tick. The store grows automatically if a larger
// value is inserted later; maxValue is only the initial capacity hint.
func NewFenwickStore(tick, maxValue float64) *FenwickStore {
	if !(tick > 0) {
		panic("qbets: FenwickStore tick must be positive")
	}
	m := int(math.Ceil(maxValue/tick)) + 1
	if m < 16 {
		m = 16
	}
	return &FenwickStore{
		tick:   tick,
		tree:   make([]int, m+1),
		counts: make([]int, m),
	}
}

// bucket maps a value to its grid index, validating grid alignment loosely
// (values are snapped to the nearest bucket; the grid is the data's native
// resolution so snapping never loses information for in-contract callers).
func (f *FenwickStore) bucket(v float64) (int, error) {
	if math.IsNaN(v) || v < -f.tick/2 {
		return 0, fmt.Errorf("qbets: value %v outside the non-negative grid", v)
	}
	b := int(math.Round(v / f.tick))
	if b < 0 {
		b = 0
	}
	return b, nil
}

func (f *FenwickStore) grow(minBuckets int) {
	m := len(f.counts)
	for m < minBuckets {
		m *= 2
	}
	counts := make([]int, m)
	copy(counts, f.counts)
	tree := make([]int, m+1)
	// Rebuild the Fenwick tree in O(m) from the raw counts.
	for i := 1; i <= m; i++ {
		tree[i] += counts[i-1]
		if j := i + (i & -i); j <= m {
			tree[j] += tree[i]
		}
	}
	f.counts = counts
	f.tree = tree
}

// Len returns the number of stored values.
func (f *FenwickStore) Len() int { return f.n }

// Insert adds one occurrence of v. Values off the non-negative grid panic:
// the store is only used with data that is grid-aligned by construction.
func (f *FenwickStore) Insert(v float64) {
	b, err := f.bucket(v)
	if err != nil {
		panic(err)
	}
	if b >= len(f.counts) {
		f.grow(b + 1)
	}
	f.counts[b]++
	for i := b + 1; i <= len(f.counts); i += i & -i {
		f.tree[i]++
	}
	f.n++
}

// Remove deletes one occurrence of v, reporting whether it was present.
func (f *FenwickStore) Remove(v float64) bool {
	b, err := f.bucket(v)
	if err != nil || b >= len(f.counts) || f.counts[b] == 0 {
		return false
	}
	f.counts[b]--
	for i := b + 1; i <= len(f.counts); i += i & -i {
		f.tree[i]--
	}
	f.n--
	return true
}

// Select returns the k-th smallest stored value (1-based) by binary
// indexed descent.
func (f *FenwickStore) Select(k int) float64 {
	if k < 1 || k > f.n {
		panic("qbets: FenwickStore.Select rank out of range")
	}
	pos := 0
	rem := k
	// Highest power of two <= len(counts).
	logm := 1
	for logm*2 <= len(f.counts) {
		logm *= 2
	}
	for step := logm; step > 0; step >>= 1 {
		next := pos + step
		if next <= len(f.counts) && f.tree[next] < rem {
			rem -= f.tree[next]
			pos = next
		}
	}
	// pos is now the count of buckets whose cumulative total < k, so the
	// value lives in bucket index pos.
	return float64(pos) * f.tick
}

var _ OrderStats = (*FenwickStore)(nil)
