package qbets

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// LevelStore is an OrderStats over values on the uniform grid
// v = level * tick that holds only the levels present, each with its
// multiplicity. Spot price series are ladders that revisit a handful of
// exact prices, so a three-month window takes tens of levels where a
// FenwickStore spans tens of thousands of buckets; LevelStore's memory is
// O(distinct levels).
//
// Values snap to the grid exactly as FenwickStore's do, and Select returns
// the same float64 FenwickStore returns for the same bucket, so the two
// stores are interchangeable bit for bit.
//
// The levels sit in sorted blocks of at most levelFan, each at least half
// full unless it is the only one, with a Fenwick tree over the blocks'
// value counts. Insert, Remove and Select cost a binary search over the
// blocks, one within a block and O(log blocks) Fenwick steps; a block
// split or merge also rebuilds the block index in O(blocks). Everything
// lives in four flat slices, so a steady state allocates nothing and a
// clone is four slice copies.
type LevelStore struct {
	tick   float64
	blocks []levelBlock // in level order
	fen    []int32      // 1-based Fenwick tree over blocks[i].total
	// Slot s holds a block's levels, ascending, and their counts in
	// [s*levelFan, s*levelFan+n) of lv and ct. Slots are dense.
	lv, ct []int32
	n      int // values stored
}

type levelBlock struct {
	first int32 // routing key: the block holds no level below first, the previous none at or above it
	slot  int32
	n     int32 // levels held
	total int32 // values held, with multiplicity
}

// levelFan is the most levels one block holds.
const levelFan = 64

// NewLevelStore returns an empty store for non-negative values quantized
// to tick. It holds up to math.MaxInt32 values on levels up to
// math.MaxInt32.
func NewLevelStore(tick float64) *LevelStore {
	if !(tick > 0) {
		panic("qbets: LevelStore tick must be positive")
	}
	return &LevelStore{tick: tick}
}

// level maps a value to its grid index, snapping as FenwickStore.bucket
// does.
func (s *LevelStore) level(v float64) (int32, error) {
	if math.IsNaN(v) || v < -s.tick/2 {
		return 0, fmt.Errorf("qbets: value %v outside the non-negative grid", v)
	}
	b := math.Round(v / s.tick)
	if b > math.MaxInt32 {
		return 0, fmt.Errorf("qbets: value %v beyond the level grid", v)
	}
	if b < 0 {
		b = 0
	}
	return int32(b), nil
}

// Places reports whether v lies on the store's grid, as level checks it:
// not below -tick/2 and rounding to at most math.MaxInt32 ticks. Insert
// panics on any other value. math.Round(x) exceeds math.MaxInt32 exactly
// when x >= math.MaxInt32+0.5, so no rounding is needed.
func (s *LevelStore) Places(v float64) bool {
	return v >= -s.tick/2 && v/s.tick < math.MaxInt32+0.5
}

// Len returns the number of stored values.
func (s *LevelStore) Len() int { return s.n }

// locate returns the index of the block that holds, or would hold, level b.
func (s *LevelStore) locate(b int32) int {
	i := 0
	for n := len(s.blocks); n > 1; {
		half := n >> 1
		i += half &^ below(b, s.blocks[i+half].first)
		n -= half
	}
	return i
}

// below is -1 (all bits set) when x < y and 0 otherwise. The binary
// searches step with it instead of a branch: each step's direction is a
// coin flip the branch predictor would miss half the time.
func below(x, y int32) int { return int((int64(x) - int64(y)) >> 63) }

// span returns block i's levels and counts.
func (s *LevelStore) span(i int) (lv, ct []int32) {
	blk := s.blocks[i]
	base := int(blk.slot) * levelFan
	end := base + int(blk.n)
	return s.lv[base : end : base+levelFan], s.ct[base : end : base+levelFan]
}

// search returns the position of level b in lv, or where it would go.
func search(lv []int32, b int32) int {
	if len(lv) == 0 {
		return 0
	}
	i := 0
	for n := len(lv); n > 1; {
		half := n >> 1
		i += half & below(lv[i+half], b)
		n -= half
	}
	return i - below(lv[i], b)
}

// Insert adds one occurrence of v. Values off the non-negative grid panic,
// as FenwickStore's do.
func (s *LevelStore) Insert(v float64) {
	b, err := s.level(v)
	if err != nil {
		panic(err)
	}
	if len(s.blocks) == 0 {
		s.blocks = append(s.blocks, levelBlock{first: b, slot: s.newSlot()})
		s.reindex()
	}
	i := s.locate(b)
	lv, ct := s.span(i)
	j := search(lv, b)
	if j == len(lv) || lv[j] != b {
		if len(lv) == levelFan {
			s.split(i)
			s.Insert(v)
			return
		}
		lv, ct = lv[:len(lv)+1], ct[:len(ct)+1]
		copy(lv[j+1:], lv[j:])
		copy(ct[j+1:], ct[j:])
		lv[j], ct[j] = b, 0
		s.blocks[i].n++
	}
	ct[j]++
	s.blocks[i].total++
	s.n++
	s.fenAdd(i, 1)
}

// Remove deletes one occurrence of v, reporting whether it was present.
func (s *LevelStore) Remove(v float64) bool {
	b, err := s.level(v)
	if err != nil || len(s.blocks) == 0 {
		return false
	}
	i := s.locate(b)
	lv, ct := s.span(i)
	j := search(lv, b)
	if j == len(lv) || lv[j] != b {
		return false
	}
	ct[j]--
	s.blocks[i].total--
	s.n--
	s.fenAdd(i, -1)
	if ct[j] == 0 {
		copy(lv[j:], lv[j+1:])
		copy(ct[j:], ct[j+1:])
		s.blocks[i].n--
		if s.blocks[i].n < levelFan/2 {
			s.refill(i)
		}
	}
	return true
}

// Select returns the k-th smallest stored value (1-based).
func (s *LevelStore) Select(k int) float64 {
	if k < 1 || k > s.n {
		panic("qbets: LevelStore.Select rank out of range")
	}
	i, rem := 0, int32(k)
	m := len(s.fen) - 1
	for step := 1 << (bits.Len(uint(m)) - 1); step > 0; step >>= 1 {
		if next := i + step; next <= m && s.fen[next] < rem {
			rem -= s.fen[next]
			i = next
		}
	}
	lv, ct := s.span(i)
	for j, c := range ct {
		if rem <= c {
			return float64(lv[j]) * s.tick
		}
		rem -= c
	}
	panic("qbets: LevelStore block totals out of step with counts")
}

func (s *LevelStore) fenAdd(i int, d int32) {
	for i++; i < len(s.fen); i += i & -i {
		s.fen[i] += d
	}
}

// reindex rebuilds the Fenwick tree after blocks were added or removed.
func (s *LevelStore) reindex() {
	m := len(s.blocks)
	if cap(s.fen) < m+1 || cap(s.fen) > 2*m+8 {
		s.fen = make([]int32, m+1, m+1+m/4)
	} else {
		s.fen = s.fen[:m+1]
		clear(s.fen)
	}
	for i := 1; i <= m; i++ {
		s.fen[i] += s.blocks[i-1].total
		if j := i + (i & -i); j <= m {
			s.fen[j] += s.fen[i]
		}
	}
}

// split moves the upper half of the full block i into a new block after it.
func (s *LevelStore) split(i int) {
	slot := s.newSlot()
	lv, ct := s.span(i)
	base := int(slot) * levelFan
	copy(s.lv[base:], lv[levelFan/2:])
	copy(s.ct[base:], ct[levelFan/2:])
	var upper int32
	for _, c := range ct[levelFan/2:] {
		upper += c
	}
	s.blocks[i].n = levelFan / 2
	s.blocks[i].total -= upper
	s.blocks = slices.Insert(s.blocks, i+1,
		levelBlock{first: lv[levelFan/2], slot: slot, n: levelFan - levelFan/2, total: upper})
	s.reindex()
}

// refill brings block i, just below half full, back to half full by
// borrowing one level from its fuller neighbour, or merges the two when
// the neighbour is itself only half full. A sole block may hold any
// number of levels and is dropped when empty.
func (s *LevelStore) refill(i int) {
	if len(s.blocks) == 1 {
		if s.blocks[0].n == 0 {
			s.freeSlot(s.blocks[0].slot)
			s.blocks = s.blocks[:0]
			s.reindex()
		}
		return
	}
	nb := i + 1
	if i+1 == len(s.blocks) || (i > 0 && s.blocks[i-1].n > s.blocks[i+1].n) {
		nb = i - 1
	}
	l, r := min(i, nb), max(i, nb)
	if s.blocks[nb].n <= levelFan/2 {
		s.merge(l, r)
		return
	}
	llv, lct := s.span(l)
	rlv, rct := s.span(r)
	var moved int32 // values on the borrowed level, moving from l to r
	if nb == r {
		// Borrow r's smallest level onto the end of l.
		llv, lct = llv[:len(llv)+1], lct[:len(lct)+1]
		llv[len(llv)-1], lct[len(lct)-1] = rlv[0], rct[0]
		moved = -rct[0]
		copy(rlv, rlv[1:])
		copy(rct, rct[1:])
		s.blocks[l].n++
		s.blocks[r].n--
	} else {
		// Borrow l's largest level onto the front of r.
		rlv, rct = rlv[:len(rlv)+1], rct[:len(rct)+1]
		copy(rlv[1:], rlv)
		copy(rct[1:], rct)
		rlv[0], rct[0] = llv[len(llv)-1], lct[len(lct)-1]
		moved = rct[0]
		s.blocks[l].n--
		s.blocks[r].n++
	}
	s.blocks[r].first = rlv[0]
	s.blocks[l].total -= moved
	s.blocks[r].total += moved
	s.fenAdd(l, -moved)
	s.fenAdd(r, moved)
}

// merge appends block r's levels to block l, its left neighbour, and
// drops r.
func (s *LevelStore) merge(l, r int) {
	llv, lct := s.span(l)
	rlv, rct := s.span(r)
	copy(llv[len(llv):len(llv)+len(rlv)], rlv)
	copy(lct[len(lct):len(lct)+len(rct)], rct)
	s.blocks[l].n += s.blocks[r].n
	s.blocks[l].total += s.blocks[r].total
	slot := s.blocks[r].slot
	s.blocks = slices.Delete(s.blocks, r, r+1)
	s.freeSlot(slot)
	if cap(s.blocks) > 2*len(s.blocks)+8 {
		s.blocks = slices.Clone(s.blocks)
	}
	s.reindex()
}

// newSlot returns a fresh slot at the end of the payload slices, growing
// their capacity by a quarter when no whole slot is left. A clone's
// capacity is what its allocation's size class rounded it to, so a
// partial slot may be left over.
func (s *LevelStore) newSlot() int32 {
	used := len(s.lv) / levelFan
	if len(s.lv)+levelFan > min(cap(s.lv), cap(s.ct)) {
		s.resize(used + used/4 + 1)
	}
	s.lv = s.lv[:len(s.lv)+levelFan]
	s.ct = s.ct[:len(s.ct)+levelFan]
	return int32(used)
}

// freeSlot releases a slot no block uses any more, moving the last slot's
// payload into it so slots stay dense, and returns memory once fewer than
// two thirds of the slots are in use.
func (s *LevelStore) freeSlot(slot int32) {
	last := int32(len(s.lv)/levelFan - 1)
	if slot != last {
		for i := range s.blocks {
			if s.blocks[i].slot == last {
				s.blocks[i].slot = slot
				break
			}
		}
		copy(s.lv[int(slot)*levelFan:], s.lv[int(last)*levelFan:])
		copy(s.ct[int(slot)*levelFan:], s.ct[int(last)*levelFan:])
	}
	s.lv = s.lv[:len(s.lv)-levelFan]
	s.ct = s.ct[:len(s.ct)-levelFan]
	if used := len(s.lv) / levelFan; cap(s.lv) > (used+used/2+2)*levelFan {
		s.resize(used + used/8 + 1)
	}
}

// resize moves the payload slices to a capacity of slots blocks.
func (s *LevelStore) resize(slots int) {
	lv := make([]int32, len(s.lv), slots*levelFan)
	ct := make([]int32, len(s.ct), slots*levelFan)
	copy(lv, s.lv)
	copy(ct, s.ct)
	s.lv, s.ct = lv, ct
}

// Clone returns an independent deep copy of the store.
func (s *LevelStore) Clone() *LevelStore {
	cp := *s
	cp.blocks = slices.Clone(s.blocks)
	cp.fen = slices.Clone(s.fen)
	cp.lv = slices.Clone(s.lv)
	cp.ct = slices.Clone(s.ct)
	return &cp
}

// CloneOrderStats implements StoreCloner.
func (s *LevelStore) CloneOrderStats() OrderStats { return s.Clone() }

var _ OrderStats = (*LevelStore)(nil)
