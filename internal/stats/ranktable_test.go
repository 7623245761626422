package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"
)

// maxHistory is core.DefaultMaxHistory, three months of 5-minute ticks:
// the longest window a predictor, run tracker or guarantee walk sizes.
const maxHistory = 3 * 30 * 24 * 12

// rankRef returns UpperBoundIndex(n, q, c) for every n in [0, maxN], 0
// where there is no bound.
func rankRef(maxN int, q, c float64) []int {
	ref := make([]int, maxN+1)
	for n := 1; n <= maxN; n++ {
		if k, ok := UpperBoundIndex(n, q, c); ok {
			ref[n] = k
		}
	}
	return ref
}

// checkRank fails the test unless t answers ref[n] at n.
func checkRank(tb testing.TB, what string, rt *RankTable, ref []int, n int) {
	tb.Helper()
	k, ok := rt.Index(n)
	if ok != (k > 0) || k != ref[n] {
		tb.Fatalf("q=%v c=%v %s: Index(%d) = %d,%v, want %d", rt.q, rt.c, what, n, k, ok, ref[n])
	}
}

// TestRankTableMatchesUpperBoundIndex pins RankTable to UpperBoundIndex
// over every sample size up to twice a three-month history, for every
// (q, c) the program builds: the price quantile sqrt(p), the duration
// rank's 1-(1-sqrt(p)) (which need not be bit-equal to sqrt(p)) and the
// baselines' p, at c = 0.99, plus the QBETS tests' configurations. Fresh
// tables are filled in one extension (a descending walk), in many
// (ascending) and in seeded random jumps.
func TestRankTableMatchesUpperBoundIndex(t *testing.T) {
	type qc struct{ q, c float64 }
	var cases []qc
	for _, p := range []float64{0.95, 0.99} {
		cases = append(cases, qc{math.Sqrt(p), 0.99}, qc{1 - (1 - math.Sqrt(p)), 0.99}, qc{p, 0.99})
	}
	cases = append(cases, qc{0.975, 0.99}, qc{1 - 0.025, 0.99}, qc{1 - 0.025, 0.95}, qc{0.5, 0.9})
	const maxN = 2 * maxHistory
	seen := map[[2]uint64]bool{}
	for _, tc := range cases {
		bits := [2]uint64{math.Float64bits(tc.q), math.Float64bits(tc.c)}
		if seen[bits] {
			continue // the same bits read the same table
		}
		seen[bits] = true
		t.Run(fmt.Sprintf("q=%v/c=%v", tc.q, tc.c), func(t *testing.T) {
			t.Parallel()
			q, c := tc.q, tc.c
			ref := rankRef(maxN, q, c)
			up, down, jump := &RankTable{q: q, c: c}, &RankTable{q: q, c: c}, &RankTable{q: q, c: c}
			for n := 1; n <= maxN; n++ {
				checkRank(t, "ascending", up, ref, n)
				checkRank(t, "descending", down, ref, maxN+1-n)
				checkRank(t, "shared", RankTableFor(q, c), ref, n)
			}
			rng := NewRNG(int64(maxN) + int64(1e6*q))
			n := 1
			for i := 0; i < maxN; i++ {
				switch r := rng.Intn(20); {
				case r < 12: // drift by a few, as one observation or eviction does
					n += rng.Intn(7) - 3
				case r < 17: // an effective-size re-estimate
					n += rng.Intn(401) - 200
				case r < 19: // a change-point truncation, back into warm-up
					n = 1 + rng.Intn(1000)
				default: // a fresh history
					n = 1 + rng.Intn(maxN)
				}
				n = min(max(n, 1), maxN)
				checkRank(t, "random", jump, ref, n)
			}
		})
	}
}

// TestRankTableWarmUpAcrossConfigs walks fresh tables for a spread of
// (q, c) into, out of and back into the sizes too small for any bound.
func TestRankTableWarmUpAcrossConfigs(t *testing.T) {
	for _, q := range []float64{0.5, 0.9, 0.975, 0.995, 0.999} {
		for _, c := range []float64{0.5, 0.9, 0.99, 0.999} {
			rt := &RankTable{q: q, c: c}
			top := 3*MinSamplesForUpperBound(q, c) + 10
			ref := rankRef(top, q, c)
			for _, n := range append(seq(1, top), append(seq(top, 1), seq(1, top)...)...) {
				checkRank(t, "warm-up", rt, ref, n)
			}
		}
	}
}

// seq returns the integers from a to b inclusive, in that direction.
func seq(a, b int) []int {
	var out []int
	for i := a; ; {
		out = append(out, i)
		if i == b {
			return out
		}
		if a < b {
			i++
		} else {
			i--
		}
	}
}

func TestRankTableRejectsInvalidArgs(t *testing.T) {
	rt := RankTableFor(0.975, 0.99)
	if k, ok := rt.Index(500); !ok || k < 1 {
		t.Fatalf("Index(500) = %d,%v", k, ok)
	}
	for _, n := range []int{0, -3} {
		if _, ok := rt.Index(n); ok {
			t.Errorf("Index(%d) reported a bound", n)
		}
	}
	if _, ok := rt.Index(181); ok {
		t.Error("Index(181) reported a bound below MinSamplesForUpperBound")
	}
	if k, ok := rt.Index(182); !ok || k != 1 {
		t.Errorf("Index(182) = %d,%v want 1,true", k, ok)
	}
	nan := math.NaN()
	for _, qc := range [][2]float64{{1.5, 0.99}, {0, 0.99}, {1, 0.99}, {-0.1, 0.99}, {nan, 0.99},
		{0.975, 0}, {0.975, 1}, {0.975, nan}} {
		bad := RankTableFor(qc[0], qc[1])
		for _, n := range []int{1, 10, 20, 5000} {
			if k, ok := bad.Index(n); ok || k != 0 {
				t.Errorf("q=%v c=%v: Index(%d) = %d,%v, want 0,false", qc[0], qc[1], n, k, ok)
			}
		}
		if bad.snap.Load() != nil {
			t.Errorf("q=%v c=%v: the table stored breakpoints", qc[0], qc[1])
		}
		if _, ok := rankTables.Load(rankKey{math.Float64bits(qc[0]), math.Float64bits(qc[1])}); ok {
			t.Errorf("q=%v c=%v: the registry holds a table", qc[0], qc[1])
		}
	}
}

// TestRankTableSharedPerConfig: one table per (q, c) bits.
func TestRankTableSharedPerConfig(t *testing.T) {
	if RankTableFor(0.975, 0.99) != RankTableFor(0.975, 0.99) {
		t.Error("the same (q, c) returned two tables")
	}
	if RankTableFor(0.975, 0.99) == RankTableFor(0.975, 0.95) {
		t.Error("two confidences share a table")
	}
}

// TestRankTableConcurrentExtend has two goroutines extend one table with
// interleaved, growing sizes, each checking every answer; under -race it
// checks that lookups and extensions share the snapshots safely.
func TestRankTableConcurrentExtend(t *testing.T) {
	const maxN, q, c = 6000, 0.975, 0.99
	ref := rankRef(maxN, q, c)
	rt := &RankTable{q: q, c: c}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1 + g; n <= maxN; n += 2 + n/50 {
				// Re-ask a smaller size too: it reads an older part of
				// the snapshot while the other goroutine extends.
				for _, m := range []int{n, n/2 + 1} {
					if k, _ := rt.Index(m); k != ref[m] {
						t.Errorf("goroutine %d: Index(%d) = %d, want %d", g, m, k, ref[m])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	bp := rt.snap.Load().bp
	for i := 1; i < len(bp); i++ {
		if bp[i] <= bp[i-1] {
			t.Fatalf("breakpoints not increasing at %d: %d, %d", i, bp[i-1], bp[i])
		}
	}
}

// FuzzRankTable checks a fresh table for a random (q, c) in (0, 1) against
// UpperBoundIndex over a random sequence of sizes up to 4096.
func FuzzRankTable(f *testing.F) {
	f.Add(0.975, 0.99, []byte{0, 200, 0, 10, 16, 0, 0, 1})
	f.Add(math.Sqrt(0.95), 0.99, []byte{15, 255, 0, 1, 8, 0})
	f.Add(0.5, 0.9, []byte{1, 0, 0, 2, 0, 3})
	f.Add(0.01, 0.999, []byte{16, 0, 0, 7})
	f.Fuzz(func(t *testing.T, q, c float64, sizes []byte) {
		if !(q > 0 && q < 1 && c > 0 && c < 1) {
			t.Skip()
		}
		rt := &RankTable{q: q, c: c}
		for i := 0; i+1 < len(sizes) && i < 64; i += 2 {
			n := 1 + int(binary.BigEndian.Uint16(sizes[i:])%4096)
			wk, wok := UpperBoundIndex(n, q, c)
			if k, ok := rt.Index(n); k != wk || ok != wok {
				t.Fatalf("q=%v c=%v: Index(%d) = %d,%v, want %d,%v", q, c, n, k, ok, wk, wok)
			}
		}
	})
}
