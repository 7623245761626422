package qbets

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/drafts-go/drafts/internal/stats"
)

// TestCountAtMostMatchesReference: CountAtMost agrees with a brute-force
// count over arbitrary grid-valued operation streams.
func TestCountAtMostMatchesReference(t *testing.T) {
	f := func(opsRaw []uint16) bool {
		fs := NewFenwickStore(0.5, 4)
		var vals []float64
		for _, op := range opsRaw {
			v := float64(op%400) * 0.5
			if op%5 == 0 && len(vals) > 0 {
				victim := vals[int(op)%len(vals)]
				fs.Remove(victim)
				for i, x := range vals {
					if x == victim {
						vals = append(vals[:i], vals[i+1:]...)
						break
					}
				}
				continue
			}
			fs.Insert(v)
			vals = append(vals, v)
		}
		for _, probe := range []float64{-1, 0, 10, 55.5, 99.5, 200, 1e6} {
			want := 0
			for _, v := range vals {
				if v <= probe {
					want++
				}
			}
			if fs.CountAtMost(probe) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSelectCountDuality: for every rank k, CountAtMost(Select(k)) >= k
// and Select(k) is the smallest stored value with that property.
func TestSelectCountDuality(t *testing.T) {
	rng := stats.NewRNG(321)
	fs := NewFenwickStore(1, 8)
	var vals []float64
	for i := 0; i < 500; i++ {
		v := float64(rng.Intn(60))
		fs.Insert(v)
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	for k := 1; k <= len(vals); k += 7 {
		sel := fs.Select(k)
		if sel != vals[k-1] {
			t.Fatalf("Select(%d) = %v, want %v", k, sel, vals[k-1])
		}
		if got := fs.CountAtMost(sel); got < k {
			t.Fatalf("CountAtMost(Select(%d)) = %d < k", k, got)
		}
		if sel >= 1 {
			if got := fs.CountAtMost(sel - 1); got >= k {
				t.Fatalf("value below Select(%d) already reaches rank: %d", k, got)
			}
		}
	}
}

// TestGrowthPreservesContents: inserting far past the initial capacity
// must preserve earlier contents exactly.
func TestGrowthPreservesContents(t *testing.T) {
	fs := NewFenwickStore(0.25, 2) // tiny capacity hint
	for i := 0; i < 100; i++ {
		fs.Insert(float64(i) * 0.25)
	}
	fs.Insert(2500) // forces several doublings
	if fs.Len() != 101 {
		t.Fatalf("Len = %d", fs.Len())
	}
	for i := 0; i < 100; i++ {
		if got := fs.Select(i + 1); got != float64(i)*0.25 {
			t.Fatalf("Select(%d) = %v after growth", i+1, got)
		}
	}
	if got := fs.Select(101); got != 2500 {
		t.Fatalf("max = %v", got)
	}
}

// CountAtMost returns how many stored values are <= v, the dual of Select
// that the tests check it against. Values below the grid count as zero
// matches.
func (f *FenwickStore) CountAtMost(v float64) int {
	if math.IsNaN(v) || v < -f.tick/2 {
		return 0
	}
	b := int(math.Round(v / f.tick))
	if b < 0 {
		return 0
	}
	if b >= len(f.counts) {
		return f.n
	}
	sum := 0
	for i := b + 1; i > 0; i -= i & -i {
		sum += f.tree[i]
	}
	return sum
}
