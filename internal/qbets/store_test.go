package qbets

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/drafts-go/drafts/internal/stats"
)

// refStore is a brutally simple reference implementation.
type refStore struct{ vals []float64 }

func (r *refStore) Insert(v float64) { r.vals = append(r.vals, v) }
func (r *refStore) Remove(v float64) bool {
	for i, x := range r.vals {
		if x == v {
			r.vals = append(r.vals[:i], r.vals[i+1:]...)
			return true
		}
	}
	return false
}
func (r *refStore) Select(k int) float64 {
	cp := append([]float64(nil), r.vals...)
	sort.Float64s(cp)
	return cp[k-1]
}
func (r *refStore) Len() int { return len(r.vals) }

// runStoreFuzz drives a store and the reference with the same random
// operation stream and checks full agreement.
func runStoreFuzz(t *testing.T, mk func() OrderStats, genVal func(*stats.RNG) float64) {
	t.Helper()
	rng := stats.NewRNG(2024)
	s := mk()
	ref := &refStore{}
	for op := 0; op < 5000; op++ {
		switch {
		case ref.Len() == 0 || rng.Float64() < 0.6:
			v := genVal(rng)
			s.Insert(v)
			ref.Insert(v)
		case rng.Float64() < 0.5:
			// Remove a present value.
			v := ref.vals[rng.Intn(ref.Len())]
			if got, want := s.Remove(v), ref.Remove(v); got != want {
				t.Fatalf("op %d: Remove(%v) = %v, want %v", op, v, got, want)
			}
		default:
			// Remove a likely-absent value.
			v := genVal(rng)
			if got, want := s.Remove(v), ref.Remove(v); got != want {
				t.Fatalf("op %d: Remove(absent %v) = %v, want %v", op, v, got, want)
			}
		}
		if s.Len() != ref.Len() {
			t.Fatalf("op %d: Len %d != ref %d", op, s.Len(), ref.Len())
		}
		if ref.Len() > 0 {
			k := 1 + rng.Intn(ref.Len())
			if got, want := s.Select(k), ref.Select(k); got != want {
				t.Fatalf("op %d: Select(%d) = %v, want %v", op, k, got, want)
			}
			// Extremes.
			if got, want := s.Select(1), ref.Select(1); got != want {
				t.Fatalf("op %d: min = %v, want %v", op, got, want)
			}
			if got, want := s.Select(ref.Len()), ref.Select(ref.Len()); got != want {
				t.Fatalf("op %d: max = %v, want %v", op, got, want)
			}
		}
	}
}

func TestTreapFuzzAgainstReference(t *testing.T) {
	runStoreFuzz(t, func() OrderStats { return NewTreap(1) }, func(r *stats.RNG) float64 {
		return math.Floor(r.Float64()*50) / 4 // heavy duplication, including negatives? no: [0,12.5)
	})
}

func TestTreapNegativeValues(t *testing.T) {
	runStoreFuzz(t, func() OrderStats { return NewTreap(7) }, func(r *stats.RNG) float64 {
		return math.Floor(r.Float64()*40) - 20
	})
}

func TestFenwickFuzzAgainstReference(t *testing.T) {
	runStoreFuzz(t, func() OrderStats { return NewFenwickStore(0.25, 8) }, func(r *stats.RNG) float64 {
		return math.Floor(r.Float64()*200) * 0.25 // forces growth past the capacity hint
	})
}

func TestFenwickTickGrid(t *testing.T) {
	f := NewFenwickStore(0.0001, 1)
	f.Insert(0.1234)
	f.Insert(0.1234)
	f.Insert(0.0001)
	if f.Len() != 3 {
		t.Fatalf("Len = %d", f.Len())
	}
	if got := f.Select(1); got != 0.0001 {
		t.Errorf("Select(1) = %v", got)
	}
	if got := f.Select(3); math.Abs(got-0.1234) > 1e-12 {
		t.Errorf("Select(3) = %v", got)
	}
	if !f.Remove(0.1234) {
		t.Error("Remove present failed")
	}
	if f.Remove(0.5) {
		t.Error("Remove absent succeeded")
	}
	if f.Len() != 2 {
		t.Errorf("Len after removes = %d", f.Len())
	}
}

func TestFenwickRejectsOffGrid(t *testing.T) {
	f := NewFenwickStore(1, 10)
	defer func() {
		if recover() == nil {
			t.Error("Insert(NaN) did not panic")
		}
	}()
	f.Insert(math.NaN())
}

func TestFenwickRejectsNegative(t *testing.T) {
	f := NewFenwickStore(1, 10)
	defer func() {
		if recover() == nil {
			t.Error("Insert(-5) did not panic")
		}
	}()
	f.Insert(-5)
}

func TestFenwickZeroTickPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFenwickStore(0, ...) did not panic")
		}
	}()
	NewFenwickStore(0, 10)
}

func TestSelectPanicsOutOfRange(t *testing.T) {
	for name, s := range map[string]OrderStats{
		"treap":   NewTreap(1),
		"fenwick": NewFenwickStore(1, 4),
		"levels":  NewLevelStore(1),
	} {
		s.Insert(1)
		for _, k := range []int{0, 2} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Select(%d) did not panic", name, k)
					}
				}()
				s.Select(k)
			}()
		}
	}
}

func TestTreapSelectMatchesSortProperty(t *testing.T) {
	f := func(raw []float64) bool {
		tr := NewTreap(3)
		var clean []float64
		for _, v := range raw {
			if math.IsNaN(v) {
				continue
			}
			tr.Insert(v)
			clean = append(clean, v)
		}
		sort.Float64s(clean)
		for i, want := range clean {
			if tr.Select(i+1) != want {
				return false
			}
		}
		return tr.Len() == len(clean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTreapBalance(t *testing.T) {
	// Sorted insertion order must not degrade treap performance: depth
	// should stay O(log n). We verify via Select latency proxy: the
	// structure handles 200k sequential inserts + selects quickly; here we
	// just sanity check correctness on sorted input.
	tr := NewTreap(9)
	const n = 20000
	for i := 0; i < n; i++ {
		tr.Insert(float64(i))
	}
	for _, k := range []int{1, n / 4, n / 2, n} {
		if got := tr.Select(k); got != float64(k-1) {
			t.Fatalf("Select(%d) = %v, want %v", k, got, float64(k-1))
		}
	}
}

func TestZeroSeedTreapStillWorks(t *testing.T) {
	tr := NewTreap(0)
	for i := 10; i > 0; i-- {
		tr.Insert(float64(i))
	}
	if got := tr.Select(1); got != 1 {
		t.Errorf("Select(1) = %v", got)
	}
}
