package core

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"sync/atomic"

	"github.com/drafts-go/drafts/internal/spot"
)

// chunkTicks is the number of price ticks one window chunk holds. A
// predictor's window is a run of chunks; a full chunk never changes, so
// clones share it and a Clone copies only the partly filled tail. 1,021
// ticks, the cached checksum and the cached tick bounds fill a chunk to
// exactly 4 KiB, an allocation size class (one tick more would put it in
// the 4,864-byte class), and waste at most one chunk at each end of
// serve's 8,640-tick 30-day windows.
const chunkTicks = 1021

// chunk is one fixed-size block of a window. Once the chunk is full, crc
// caches the CRC-32C of its ticks' prices (see checksum); 0 means not yet
// computed, so a chunk whose CRC is 0 is recomputed each time. Windows
// sharing the chunk may compute it concurrently, and store the same
// value. lo and hi are the lowest and highest of its ticks, written once
// when the chunk fills (seal), while it is still its window's private
// tail; they cover every slot, so they bound the live ticks only of a
// chunk that is wholly live.
type chunk struct {
	ticks  [chunkTicks]uint32
	crc    atomic.Uint32
	lo, hi uint32
}

// tickWindow is a predictor's retained price window: the last limit
// offered ticks (every one when limit is 0), oldest first, each the
// price's tick on the spot.PriceTick grid (windowTick). Chunks are
// written only while they are the window's tail and not yet full; a
// window owns its tail exclusively, and a window is written only after
// clone gave it its own tail, so windows never see each other's writes.
// Every full chunk is shared: by a predictor's clones (Clone) and by the
// other probabilities' predictors of the same market (Sibling,
// LoadPredictor), so a market's ticks are held once however many
// predictors read them.
type tickWindow struct {
	chunks []*chunk // chunks[0].ticks[off] is the oldest live tick
	off    int
	n      int // live ticks
	limit  int
}

// noTick is the scans' "no retained tick reaches the level": no window
// tick exceeds math.MaxInt32.
const noTick = math.MaxUint32

// windowTick is the tick a window slot holds for an offered price: its
// tick on the grid (spot.Ticks), clamped to the price QBETS grid's top
// (math.MaxInt32 ticks), and 0 for a price Observe drops. Tick 0 is below
// every bid, so a dropped price ends no episode and is never a scan's
// next or maximum.
func windowTick(price float64) uint32 {
	switch {
	case !validPrice(price):
		return 0
	case price >= spot.FromTicks(math.MaxInt32):
		return math.MaxInt32
	}
	return uint32(spot.Ticks(price))
}

// maybeDropped reports whether a window tick may stand for a price the
// predictor or its price QBETS dropped: tick 0 or the grid's top (either
// may also be an accepted price that only rounds to it).
func maybeDropped(t uint32) bool { return t == 0 || t == math.MaxInt32 }

// levelTick is the smallest tick whose price is at or above bid: a window
// tick reaches the bid exactly when it reaches this tick.
func levelTick(bid float64) uint32 {
	switch {
	case math.IsNaN(bid) || bid > spot.FromTicks(math.MaxInt32):
		return math.MaxInt32 + 1
	case bid <= 0:
		return 0
	}
	t := spot.Ticks(bid)
	if spot.FromTicks(t) < bid {
		t++
	}
	return uint32(t)
}

// end is the position one past the newest tick, counted from chunks[0].
func (w *tickWindow) end() int { return w.off + w.n }

// tail returns the chunk the next tick goes to and its slot there,
// appending a fresh chunk when the last one is full.
func (w *tickWindow) tail() (*chunk, int) {
	end := w.end()
	if end == len(w.chunks)*chunkTicks {
		w.chunks = append(w.chunks, new(chunk))
	}
	return w.chunks[len(w.chunks)-1], end - (len(w.chunks)-1)*chunkTicks
}

// push appends one tick, dropping the oldest beyond the limit.
func (w *tickWindow) push(t uint32) {
	c, i := w.tail()
	c.ticks[i] = t
	if i == chunkTicks-1 {
		c.seal(i, t, t)
	}
	w.n++
	if w.limit > 0 && w.n > w.limit {
		w.drop(w.n - w.limit)
	}
}

// pushPrices appends the window ticks of prices in order, exactly as one
// push per price would. Only the last limit of them can stay, so only
// those are written. It returns the number of prices up to and including
// the last written one whose tick is maybeDropped, 0 when there is none.
func (w *tickWindow) pushPrices(prices []float64) (lastDropped int) {
	skip := 0
	if w.limit > 0 {
		if len(prices) >= w.limit {
			w.drop(w.n)
			skip = len(prices) - w.limit
		} else if over := w.n + len(prices) - w.limit; over > 0 {
			w.drop(over)
		}
	}
	for pos := skip; pos < len(prices); {
		c, i := w.tail()
		k := min(chunkTicks-i, len(prices)-pos)
		lo, hi := uint32(noTick), uint32(0)
		for j, v := range prices[pos : pos+k] {
			t := windowTick(v)
			c.ticks[i+j] = t
			lo, hi = min(lo, t), max(hi, t)
		}
		// The segment's bounds show whether it holds a maybeDropped tick,
		// so the common segment without one is not searched.
		if maybeDropped(lo) || maybeDropped(hi) {
			for j := k - 1; ; j-- {
				if maybeDropped(c.ticks[i+j]) {
					lastDropped = pos + j + 1
					break
				}
			}
		}
		if i+k == chunkTicks {
			c.seal(i, lo, hi)
		}
		w.n += k
		pos += k
	}
	return lastDropped
}

// seal caches the bounds of a chunk that has just filled, given lo and
// hi, the bounds of its ticks from slot from on.
func (c *chunk) seal(from int, lo, hi uint32) {
	for _, t := range c.ticks[:from] {
		lo, hi = min(lo, t), max(hi, t)
	}
	c.lo, c.hi = lo, hi
}

// drop removes the k oldest ticks, releasing every chunk left wholly
// behind.
func (w *tickWindow) drop(k int) {
	w.off += k
	w.n -= k
	if gone := w.off / chunkTicks; gone > 0 {
		clear(w.chunks[:gone])
		w.chunks = w.chunks[gone:]
		w.off -= gone * chunkTicks
	}
}

// clone returns a window with the same ticks that shares every full
// chunk and copies the partly filled tail, if any.
func (w *tickWindow) clone() tickWindow {
	c := *w
	c.chunks = make([]*chunk, len(w.chunks), len(w.chunks)+1)
	copy(c.chunks, w.chunks)
	if last := len(w.chunks) - 1; last >= 0 && w.end() < len(w.chunks)*chunkTicks {
		t := new(chunk)
		fill := w.end() - last*chunkTicks
		copy(t.ticks[:fill], w.chunks[last].ticks[:fill])
		c.chunks[last] = t
	}
	return c
}

// seg returns the live ticks of chunk k.
func (w *tickWindow) seg(k int) []uint32 {
	lo, hi := 0, chunkTicks
	if k == 0 {
		lo = w.off
	}
	if k == len(w.chunks)-1 {
		hi = w.end() - k*chunkTicks
	}
	return w.chunks[k].ticks[lo:hi]
}

// highest returns the highest live tick, 0 for an empty window. A wholly
// live full chunk answers from its cached bound.
func (w *tickWindow) highest() uint32 {
	var hi uint32
	for k, c := range w.chunks {
		if seg := w.seg(k); len(seg) == chunkTicks {
			hi = max(hi, c.hi)
		} else {
			for _, t := range seg {
				hi = max(hi, t)
			}
		}
	}
	return hi
}

// crcBlock is the number of ticks crcOfTicks converts per CRC update.
const crcBlock = 512

// crcOfTicks extends the CRC-32C crc by the float64 bits of ticks' prices,
// little endian, as checksum defines it.
func crcOfTicks(crc uint32, ticks []uint32) uint32 {
	var buf [8 * crcBlock]byte
	for len(ticks) > 0 {
		n := min(len(ticks), crcBlock)
		for i, t := range ticks[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(spot.FromTicks(int(t))))
		}
		crc = crc32.Update(crc, castagnoli, buf[:8*n])
		ticks = ticks[n:]
	}
	return crc
}

// checksum returns the CRC-32C of a full chunk's prices, computing it on
// first use.
func (c *chunk) checksum() uint32 {
	v := c.crc.Load()
	if v == 0 {
		v = crcOfTicks(0, c.ticks[:])
		c.crc.Store(v)
	}
	return v
}

// checksum is the CRC-32C of the window's prices as float64 IEEE-754 bits
// (spot.FromTicks of each tick), little endian, oldest first. An on-grid
// price is its own FromTicks, so this is the CRC of the observed prices'
// bits that predictorPersistVersion 2 snapshots carry. A full chunk's
// CRC is computed once and cached, so a checksum converts only a partly
// live first chunk, the tail and chunks no checksum has read yet; each
// full chunk is spliced in with crcAppendChunk. Converting every tick
// instead made each snapshot of the 90-day windows cost a quarter of an
// ingest refresh cycle.
func (w *tickWindow) checksum() uint32 {
	var crc uint32
	for k := range w.chunks {
		if seg := w.seg(k); len(seg) == chunkTicks {
			crc = crcAppendChunk(crc, w.chunks[k].checksum())
		} else {
			crc = crcOfTicks(crc, seg)
		}
	}
	return crc
}

// crcChunkShift is the multiplier that advances a CRC-32C past one full
// chunk's 8·chunkTicks bytes: x^(8·8·chunkTicks) mod P, in the reflected
// bit order the hash/crc32 tables use.
var crcChunkShift = xPowMod(8 * 8 * chunkTicks)

// crcAppendChunk returns the CRC-32C of A followed by a full chunk B,
// given crc = CRC(A) and chunkCRC = CRC(B): the zlib crc32_combine rule,
// CRC(A‖B) = CRC(A)·x^(8|B|) mod P ⊕ CRC(B).
func crcAppendChunk(crc, chunkCRC uint32) uint32 {
	return mulModP(crcChunkShift, crc) ^ chunkCRC
}

// mulModP multiplies two polynomials modulo the Castagnoli polynomial,
// both in reflected order (bit 31 is x^0).
func mulModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.Castagnoli
		} else {
			b >>= 1
		}
	}
	return p
}

// xPowMod returns x^n mod the Castagnoli polynomial, reflected.
func xPowMod(n int) uint32 {
	p, sq := uint32(1)<<31, uint32(1)<<30 // x^0, x^1
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			p = mulModP(sq, p)
		}
		sq = mulModP(sq, sq)
	}
	return p
}
