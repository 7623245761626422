package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/drafts-go/drafts/internal/spot"
)

// windowLimits are the MaxHistory values the window tests cover: none,
// one tick, either side of a chunk and the 90-day default.
var windowLimits = []int{0, 1, chunkTicks - 1, chunkTicks, chunkTicks + 1, DefaultMaxHistory}

// runLengths are the bulk pushes the window tests draw from: single
// ticks, runs that end on or either side of a chunk boundary, and runs
// that overrun the 90-day window whole.
var runLengths = []int{1, 2, 7, chunkTicks - 1, chunkTicks, chunkTicks + 1, 3*chunkTicks + 5, DefaultMaxHistory, DefaultMaxHistory + 1}

// modelChecksum is tickWindow.checksum computed over the materialized float64
// prices.
func modelChecksum(ticks []uint32) uint32 {
	buf := make([]byte, 8*len(ticks))
	for i, t := range ticks {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(spot.FromTicks(int(t))))
	}
	return crc32.Checksum(buf, castagnoli)
}

// windowModel is a window beside the plain slice it must equal.
type windowModel struct {
	w     tickWindow
	model []uint32
}

func (m *windowModel) push(prices []float64) {
	if len(prices) == 1 {
		m.w.push(windowTick(prices[0]))
	} else {
		m.w.pushPrices(prices)
	}
	for _, v := range prices {
		m.model = append(m.model, windowTick(v))
	}
	if lim := m.w.limit; lim > 0 && len(m.model) > lim {
		m.model = append(m.model[:0], m.model[len(m.model)-lim:]...)
	}
}

func (m *windowModel) check(t *testing.T, what string) {
	t.Helper()
	if m.w.n != len(m.model) || !slices.Equal(m.w.ticks(), m.model) {
		t.Fatalf("%s: window holds %d ticks, model %d, or they differ", what, m.w.n, len(m.model))
	}
	if len(m.w.chunks) > 0 && (m.w.off >= chunkTicks || m.w.end() <= (len(m.w.chunks)-1)*chunkTicks) {
		t.Fatalf("%s: %d chunks for offset %d and %d ticks", what, len(m.w.chunks), m.w.off, m.w.n)
	}
	if got, want := m.w.checksum(), modelChecksum(m.model); got != want {
		t.Fatalf("%s: checksum %08x, model %08x", what, got, want)
	}
	checkChunkBounds(t, what, &m.w)
}

// checkChunkBounds requires every full chunk of w, live or not in every
// slot, to cache the lowest and highest of its ticks.
func checkChunkBounds(t *testing.T, what string, w *tickWindow) {
	t.Helper()
	for k, c := range w.chunks {
		if (k+1)*chunkTicks > w.end() {
			break // the partly filled tail
		}
		if lo, hi := slices.Min(c.ticks[:]), slices.Max(c.ticks[:]); c.lo != lo || c.hi != hi {
			t.Fatalf("%s: chunk %d caches bounds [%d, %d], holds [%d, %d]", what, k, c.lo, c.hi, lo, hi)
		}
	}
}

// fuzzPrices draws n prices: mostly on-grid ladder prices, with the odd
// price Observe drops and the odd one beyond the tick grid.
func fuzzPrices(rng *rand.Rand, n int) []float64 {
	prices := make([]float64, n)
	for i := range prices {
		switch rng.Intn(50) {
		case 0:
			prices[i] = []float64{math.NaN(), 0, -1, math.Inf(1), 5e5, spot.FromTicks(math.MaxInt32)}[rng.Intn(6)]
		default:
			prices[i] = spot.FromTicks(1 + rng.Intn(3000))
		}
	}
	return prices
}

// FuzzTickWindow runs random push, bulk-push, drop and clone sequences
// against a []uint32 model: after every step each live window (the newest
// clone and up to three ancestors, still fed) must hold its model's
// ticks, keep its chunk layout tight, checksum as the materialized float
// prices do and cache each full chunk's tick bounds. A sel with its top
// bit set runs the sibling lane instead (fuzzSiblings).
func FuzzTickWindow(f *testing.F) {
	for sel := range windowLimits {
		f.Add(uint8(sel), int64(sel), []byte{0, 4, 8, 3, 12, 16, 3, 20, 24, 28, 32, 1, 3, 2})
		f.Add(uint8(sel), int64(100+sel), []byte{16, 16, 16, 3, 16, 0, 0, 3, 20, 3, 24, 28, 32})
		f.Add(uint8(0x80|sel), int64(200+sel), []byte{8, 0, 1, 12, 1, 24, 2, 4, 1, 16, 0})
	}
	f.Fuzz(func(t *testing.T, sel uint8, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		limit := windowLimits[int(sel&0x7f)%len(windowLimits)]
		if sel&0x80 != 0 {
			fuzzSiblings(t, limit, rng, ops)
			return
		}
		if len(ops) > 64 {
			ops = ops[:64]
		}
		live := []*windowModel{{w: tickWindow{limit: limit}}}
		for step, op := range ops {
			switch op % 5 {
			case 4: // drop the oldest ticks of a window
				m := live[rng.Intn(len(live))]
				k := rng.Intn(m.w.n + 1)
				m.w.drop(k)
				m.model = m.model[k:]
			case 3: // clone the newest window; both keep being fed
				cur := live[len(live)-1]
				live = append(live, &windowModel{w: cur.w.clone(), model: slices.Clone(cur.model)})
				if len(live) > 4 {
					live = live[1:]
				}
			default:
				m := live[rng.Intn(len(live))]
				m.push(fuzzPrices(rng, runLengths[int(op>>2)%len(runLengths)]))
			}
			for i, m := range live {
				m.check(t, fmt.Sprintf("step %d, window %d", step, i))
			}
		}
	})
}

// TestCloneFedDifferentSuffixes clones predictors whose windows span
// several full chunks and a partly filled tail, feeds original and clone
// different suffixes concurrently, and requires each to hold exactly the
// window and table of a predictor fed its own sequence from the start.
// Under the race detector a write to a shared chunk fails the test.
func TestCloneFedDifferentSuffixes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, limit := range windowLimits {
		params := Params{Probability: 0.95, MaxHistory: limit}
		prefix := randomPrices(rng, 3*chunkTicks+100)
		suffixes := [2][]float64{randomPrices(rng, 1500), randomPrices(rng, 700)}
		orig, err := NewPredictor(params, t0)
		if err != nil {
			t.Fatal(err)
		}
		orig.ObserveAll(prefix)
		preds := [2]*Predictor{orig, orig.Clone()}
		var wg sync.WaitGroup
		for i := range preds {
			wg.Add(1)
			go func(p *Predictor, suffix []float64) {
				defer wg.Done()
				for _, v := range suffix {
					p.Observe(v)
				}
			}(preds[i], suffixes[i])
		}
		wg.Wait()
		for i, p := range preds {
			want, err := NewPredictor(params, t0)
			if err != nil {
				t.Fatal(err)
			}
			want.ObserveAll(append(slices.Clone(prefix), suffixes[i]...))
			if !slices.Equal(p.win.ticks(), want.win.ticks()) || !p.Now().Equal(want.Now()) {
				t.Fatalf("limit %d, predictor %d: window of %d ticks at %v, want %d at %v",
					limit, i, p.Len(), p.Now(), want.Len(), want.Now())
			}
			got, _ := tableBytes(t, p)
			wantTable, _ := tableBytes(t, want)
			if !bytes.Equal(got, wantTable) {
				t.Fatalf("limit %d, predictor %d: table differs from a predictor fed the same sequence", limit, i)
			}
		}
	}
}

// TestChecksumSplicesFullChunks checks the CRC-32C combination that
// splices a full chunk's cached checksum onto the running one.
func TestChecksumSplicesFullChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		a := make([]byte, rng.Intn(5000))
		b := make([]byte, 8*chunkTicks)
		rng.Read(a)
		rng.Read(b)
		whole := crc32.Checksum(append(slices.Clone(a), b...), castagnoli)
		if got := crcAppendChunk(crc32.Checksum(a, castagnoli), crc32.Checksum(b, castagnoli)); got != whole {
			t.Fatalf("trial %d: spliced %08x, direct %08x", trial, got, whole)
		}
	}
}

// TestChunkFillsSizeClass pins the chunk at 4 KiB: one more byte moves
// every chunk into the allocator's 4,864-byte size class.
func TestChunkFillsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(chunk{}); size != 4096 {
		t.Fatalf("chunk is %d bytes, want 4096", size)
	}
}
