package qbets

import (
	"math"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/stats"
)

func TestLevelStoreFuzzAgainstReference(t *testing.T) {
	runStoreFuzz(t, func() OrderStats { return NewLevelStore(0.25) }, func(r *stats.RNG) float64 {
		return math.Floor(r.Float64()*200) * 0.25
	})
}

func TestLevelStoreRejectsOffGrid(t *testing.T) {
	for _, v := range []float64{math.NaN(), -5, math.Inf(1), math.Inf(-1), 1e300} {
		s := NewLevelStore(1)
		if s.Remove(v) {
			t.Errorf("Remove(%v) reported present", v)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert(%v) did not panic", v)
				}
			}()
			s.Insert(v)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("NewLevelStore(0) did not panic")
		}
	}()
	NewLevelStore(0)
}

// TestLevelStorePlacesMatchesLevel: Places accepts exactly the values
// level maps to a grid index, at the grid's two ends and off it.
func TestLevelStorePlacesMatchesLevel(t *testing.T) {
	for _, tick := range []float64{1, 0.25, 0.0001} {
		s := NewLevelStore(tick)
		top := (math.MaxInt32 + 0.5) * tick
		for _, v := range []float64{
			0, tick, -tick / 2, math.Nextafter(-tick/2, -1), -5,
			math.MaxInt32 * tick, math.Nextafter(top, 0), top, math.Nextafter(top, math.Inf(1)),
			float64(1<<32) * tick, 1e300, math.NaN(), math.Inf(1), math.Inf(-1),
		} {
			_, err := s.level(v)
			if got := s.Places(v); got != (err == nil) {
				t.Errorf("tick %v: Places(%v) = %v, level error %v", tick, v, got, err)
			}
		}
	}
}

// TestLevelStoreGridEnds routes the grid's first and last levels across
// several blocks.
func TestLevelStoreGridEnds(t *testing.T) {
	s := NewLevelStore(1)
	for l := 1; l <= 3*levelFan; l++ {
		s.Insert(float64(l))
	}
	s.Insert(math.MaxInt32)
	s.Insert(0)
	checkLevelStore(t, s)
	if got := s.Select(s.Len()); got != math.MaxInt32 {
		t.Fatalf("max = %v, want %v", got, float64(math.MaxInt32))
	}
	if got := s.Select(1); got != 0 {
		t.Fatalf("min = %v, want 0", got)
	}
	if !s.Remove(math.MaxInt32) || !s.Remove(0) || s.Len() != 3*levelFan {
		t.Fatal("removing the grid ends failed")
	}
	checkLevelStore(t, s)
}

// checkLevelStore verifies the block structure: levels ascending within
// and across blocks, routing keys between neighbours, block fill, totals,
// the Fenwick index, dense slots, and the arena bound.
func checkLevelStore(t *testing.T, s *LevelStore) {
	t.Helper()
	live, n := 0, 0
	slots := map[int32]bool{}
	prev := int64(-1)
	for i, blk := range s.blocks {
		lv, ct := s.span(i)
		if len(lv) == 0 || (len(s.blocks) > 1 && len(lv) < levelFan/2) {
			t.Fatalf("block %d of %d holds %d levels", i, len(s.blocks), len(lv))
		}
		if i > 0 && (int64(blk.first) <= prev || blk.first > lv[0]) {
			t.Fatalf("block %d: routing key %d not in (%d, %d]", i, blk.first, prev, lv[0])
		}
		var total int32
		for j, l := range lv {
			if int64(l) <= prev || ct[j] < 1 {
				t.Fatalf("block %d: level %d (count %d) after %d", i, l, ct[j], prev)
			}
			prev = int64(l)
			total += ct[j]
		}
		if total != blk.total {
			t.Fatalf("block %d: total %d, counts sum to %d", i, blk.total, total)
		}
		if slots[blk.slot] || int(blk.slot) >= len(s.lv)/levelFan {
			t.Fatalf("block %d: slot %d reused or past %d slots", i, blk.slot, len(s.lv)/levelFan)
		}
		slots[blk.slot] = true
		live += len(lv)
		n += int(total)
		var prefix int32
		for k := i + 1; k > 0; k -= k & -k {
			prefix += s.fen[k]
		}
		if int(prefix) != n {
			t.Fatalf("block %d: Fenwick prefix %d, totals sum to %d", i, prefix, n)
		}
	}
	if len(slots) != len(s.lv)/levelFan || n != s.n {
		t.Fatalf("%d blocks in %d slots, %d values (n %d)", len(slots), len(s.lv)/levelFan, n, s.n)
	}
	// Blocks are at least half full, and the arena keeps at most half its
	// slots spare: three level slots (24 bytes) per live level, plus a
	// few blocks.
	if cap(s.lv) > 3*live+4*levelFan {
		t.Fatalf("arena capacity %d for %d live levels", cap(s.lv), live)
	}
}

// liveLevels returns the number of levels s holds.
func liveLevels(s *LevelStore) int {
	live := 0
	for _, blk := range s.blocks {
		live += int(blk.n)
	}
	return live
}

// levelLane is one LevelStore checked against a FenwickStore fed the same
// operations.
type levelLane struct {
	lvl *LevelStore
	fen *FenwickStore
}

// FuzzLevelStore replays one operation stream on a LevelStore and a
// FenwickStore and compares Len, Remove's result and the bits of Select
// after every operation. The stream mixes repeated ladder levels, values
// past the Fenwick grid's initial $4 (its grow path), present and absent
// removals, runs of new levels, and clones that then take divergent
// operations alongside their originals.
func FuzzLevelStore(f *testing.F) {
	f.Add([]byte{0, 8, 16, 0, 3, 4, 4, 12, 5, 6, 7, 1, 9, 4, 20, 254, 7, 6, 14, 4})
	f.Add([]byte{6, 254, 6, 254, 7, 4, 4, 4, 4, 4, 12, 20, 28, 5, 3, 11})
	f.Add([]byte{0, 0, 0, 1, 1, 2, 2, 4, 4, 4, 4, 4, 4, 5})
	f.Add([]byte{})
	f.Fuzz(runLevelOps)
}

// runLevelOps is FuzzLevelStore's body.
func runLevelOps(t *testing.T, ops []byte) {
	// The periodic structure check is linear in the store, so longer
	// streams would only slow the fuzzer down.
	if len(ops) > 2048 {
		ops = ops[:2048]
	}
	const tick = spot.PriceTick
	lanes := []levelLane{{NewLevelStore(tick), NewFenwickStore(tick, 4)}}
	fresh := 0
	for i, op := range ops {
		ln := lanes[i%len(lanes)]
		arg := int(op >> 3)
		switch op & 7 {
		case 0, 1:
			// A ladder rung, off the grid by up to 0.4 tick.
			v := float64(2000+50*(arg%8))*tick + float64(arg%5-2)*0.2*tick
			ln.lvl.Insert(v)
			ln.fen.Insert(v)
		case 2:
			v := float64(arg) * tick
			ln.lvl.Insert(v)
			ln.fen.Insert(v)
		case 3:
			// Past the Fenwick grid's initial capacity.
			v := float64(40000+997*arg+i) * tick
			ln.lvl.Insert(v)
			ln.fen.Insert(v)
		case 4:
			if ln.fen.Len() == 0 {
				break
			}
			v := ln.fen.Select(1 + (arg*7919+i)%ln.fen.Len())
			if got, want := ln.lvl.Remove(v), ln.fen.Remove(v); got != want {
				t.Fatalf("op %d: Remove(present %v) = %v, Fenwick %v", i, v, got, want)
			}
		case 5:
			v := float64(arg*131+i%7) * tick
			if got, want := ln.lvl.Remove(v), ln.fen.Remove(v); got != want {
				t.Fatalf("op %d: Remove(%v) = %v, Fenwick %v", i, v, got, want)
			}
		case 6:
			// A run of levels never inserted before.
			for j := 0; j <= arg; j++ {
				fresh++
				v := float64(5000+(fresh*7919)%30000) * tick
				ln.lvl.Insert(v)
				ln.fen.Insert(v)
			}
		case 7:
			if len(lanes) < 4 {
				lanes = append(lanes, levelLane{ln.lvl.Clone(), ln.fen.Clone()})
			}
		}
		compareLevelLane(t, i, ln, []int{1, 1 + arg, ln.fen.Len()/2 + 1, ln.fen.Len()})
		if i%64 == 63 {
			checkLevelStore(t, ln.lvl)
		}
	}
	for _, ln := range lanes {
		checkLevelStore(t, ln.lvl)
		all := make([]int, ln.fen.Len())
		for k := range all {
			all[k] = k + 1
		}
		compareLevelLane(t, len(ops), ln, all)
	}
}

func compareLevelLane(t *testing.T, op int, ln levelLane, ranks []int) {
	t.Helper()
	if ln.lvl.Len() != ln.fen.Len() {
		t.Fatalf("op %d: Len %d, Fenwick %d", op, ln.lvl.Len(), ln.fen.Len())
	}
	for _, k := range ranks {
		if k < 1 || k > ln.fen.Len() {
			continue
		}
		if got, want := ln.lvl.Select(k), ln.fen.Select(k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("op %d: Select(%d) = %v, Fenwick %v", op, k, got, want)
		}
	}
}

// TestPredictorCloneLevelStore pins the incremental-refresh contract on
// the production price store: a clone and its original, fed the same
// later prices, give bit-identical bounds.
func TestPredictorCloneLevelStore(t *testing.T) {
	s, err := pricegen.Generator{Seed: 7}.Series(spot.Combo{Zone: "us-east-1e", Type: "c4.4xlarge"},
		time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC), 6000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Kind: UpperBound, Quantile: math.Sqrt(0.99), Confidence: 0.99, MaxHistory: 2016,
		NewStore: func() OrderStats { return NewLevelStore(spot.PriceTick) }}
	orig := MustNew(cfg)
	for _, v := range s.Prices[:3000] {
		orig.Observe(v)
	}
	clone := orig.Clone()
	for i, v := range s.Prices[3000:] {
		orig.Observe(v)
		clone.Observe(v)
		bo, oko := orig.Bound()
		bc, okc := clone.Bound()
		if oko != okc || math.Float64bits(bo) != math.Float64bits(bc) {
			t.Fatalf("step %d: original bound %v/%v, clone %v/%v", i, bo, oko, bc, okc)
		}
	}
	if orig.changePoints != clone.changePoints {
		t.Fatalf("change points diverged: %d vs %d", orig.changePoints, clone.changePoints)
	}
}

// TestLevelStoreFootprint checks that a price predictor's store holds
// exactly the distinct prices of its retained window, on a ladder market,
// on the spiky archetype and on the combo with the most distinct prices
// (a hostile market, ~2700 in 30 days). checkLevelStore bounds the arena
// by the live levels as the window slides and change points drop
// history, so memory is released. With a new level on every tick the
// store stays O(window).
func TestLevelStoreFootprint(t *testing.T) {
	start := time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range []spot.Combo{
		{Zone: "us-east-1b", Type: "c4.large"},    // calm ladder
		{Zone: "us-east-1e", Type: "c4.4xlarge"},  // spiky
		{Zone: "us-east-1d", Type: "p2.16xlarge"}, // hostile
	} {
		s, err := pricegen.Generator{Seed: 42}.Series(c, start, 30*24*12)
		if err != nil {
			t.Fatal(err)
		}
		store := NewLevelStore(spot.PriceTick)
		p := MustNew(Config{Kind: UpperBound, Quantile: math.Sqrt(0.99), Confidence: 0.99,
			MaxHistory: 7 * 24 * 12, NewStore: func() OrderStats { return store }})
		peak := 0
		for i, v := range s.Prices {
			p.Observe(v)
			peak = max(peak, liveLevels(store))
			if i%97 != 0 && i != s.Len()-1 {
				continue
			}
			distinct := map[float64]bool{}
			for _, h := range p.history() {
				distinct[h] = true
			}
			if liveLevels(store) != len(distinct) {
				t.Fatalf("%v step %d: %d live levels, %d distinct prices in the window", c, i, liveLevels(store), len(distinct))
			}
			checkLevelStore(t, store)
		}
		t.Logf("%v: %d levels at the end, %d at peak, arena capacity %d", c, liveLevels(store), peak, cap(store.lv))
	}

	const window = 2000
	s := NewLevelStore(spot.PriceTick)
	level := func(i int) float64 { return float64((i*7919)%39989) * spot.PriceTick }
	for i := 0; i < 20*window; i++ {
		s.Insert(level(i))
		if i >= window {
			if !s.Remove(level(i - window)) {
				t.Fatalf("step %d: evicted level absent", i)
			}
		}
		if cap(s.lv) > 3*window+4*levelFan {
			t.Fatalf("step %d: arena capacity %d for a %d-level window", i, cap(s.lv), window)
		}
	}
	checkLevelStore(t, s)
	if live := liveLevels(s); live != window {
		t.Fatalf("%d live levels, want %d", live, window)
	}
}
