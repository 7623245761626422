package qbets

import (
	"bytes"
	"math"
	"sort"
	"testing"
)

// FuzzFenwickQuantile drives the Fenwick-tree order statistics with an
// arbitrary insert/remove stream and checks every rank selection and
// cumulative count against a naive sorted-slice reference. The Fenwick
// store underlies every QBETS quantile bound, so a rank-arithmetic slip
// here would silently skew the paper's probability guarantees.
func FuzzFenwickQuantile(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 250, 5}, uint8(1))
	f.Add([]byte{0, 0, 0, 9, 9, 9, 128, 128}, uint8(0))
	f.Add([]byte{255, 254, 1, 255}, uint8(7))
	f.Add([]byte{}, uint8(3))
	f.Fuzz(func(t *testing.T, ops []byte, tickSel uint8) {
		ticks := []float64{0.0001, 0.5, 1, 300}
		tick := ticks[int(tickSel)%len(ticks)]
		fs := NewFenwickStore(tick, 16*tick)
		// The store's contract is the integer bucket grid (values are
		// multiples of tick), so the reference tracks buckets, not floats:
		// probing between grid points is out of contract and snaps.
		var ref []int

		for i, op := range ops {
			if op%5 == 0 && len(ref) > 0 {
				// Remove an existing value (op steers which one).
				idx := (int(op)/5 + i) % len(ref)
				victim := float64(ref[idx]) * tick
				if !fs.Remove(victim) {
					t.Fatalf("Remove(%v) reported absent, reference has it", victim)
				}
				ref = append(ref[:idx], ref[idx+1:]...)
				continue
			}
			// Insert a grid value; occasionally far out to force growth.
			bucket := int(op)
			if op == 255 {
				bucket = 1000 + i
			}
			fs.Insert(float64(bucket) * tick)
			ref = append(ref, bucket)
		}
		sort.Ints(ref)

		if fs.Len() != len(ref) {
			t.Fatalf("Len() = %d, reference %d", fs.Len(), len(ref))
		}
		for k := 1; k <= len(ref); k++ {
			if got, want := fs.Select(k), float64(ref[k-1])*tick; got != want {
				t.Fatalf("Select(%d) = %v, reference %v", k, got, want)
			}
		}
		probeBuckets := []int{0, 1, 100, 5000}
		if len(ref) > 0 {
			probeBuckets = append(probeBuckets, ref[0], ref[len(ref)-1], ref[len(ref)/2]+1)
		}
		for _, pb := range probeBuckets {
			want := 0
			for _, b := range ref {
				if b <= pb {
					want++
				}
			}
			if got := fs.CountAtMost(float64(pb) * tick); got != want {
				t.Fatalf("CountAtMost(bucket %d) = %d, reference %d", pb, got, want)
			}
		}
		// Below the grid nothing matches, by contract.
		if got := fs.CountAtMost(-tick); got != 0 {
			t.Fatalf("CountAtMost(-tick) = %d, want 0", got)
		}
		// Removing a value that was never inserted must not corrupt state.
		absent := 5
		if len(ref) > 0 {
			absent = ref[len(ref)-1] + 5
		}
		if fs.Remove(float64(absent) * tick) {
			t.Fatal("Remove of absent above-maximum value reported present")
		}
		if fs.Len() != len(ref) {
			t.Fatalf("failed Remove changed Len to %d, want %d", fs.Len(), len(ref))
		}
	})
}

// FuzzPersistRoundTrip feeds arbitrary bytes to the predictor state
// decoder, with a history window of fuzzed length: it must never panic,
// and any state it accepts must re-encode to a byte-identical document
// after a Save/Load/Save cycle against the same window — the property that
// makes service restarts resume exactly where they stopped.
func FuzzPersistRoundTrip(f *testing.F) {
	// Seed with genuine saved states across config variants, each with the
	// window its predictor observed.
	for _, cfg := range []Config{
		{Kind: UpperBound, Quantile: 0.975, Confidence: 0.99, NewStore: treapStore},
		{Kind: LowerBound, Quantile: 0.025, Confidence: 0.95, NoChangePoint: true, NewStore: treapStore},
		{Kind: UpperBound, Quantile: 0.5, Confidence: 0.9, MaxHistory: 32, ChangePointWindow: 8, NewStore: treapStore},
	} {
		p, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		for _, v := range persistFuzzWindow(100) {
			p.Observe(v)
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint16(100))
	}
	f.Add([]byte(`{"version":2}`), uint16(0))
	f.Add([]byte(`{"version":99}`), uint16(10))
	f.Add([]byte(`not json`), uint16(10))
	f.Add([]byte(``), uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, windowLen uint16) {
		window := persistFuzzWindow(int(windowLen))
		p, err := Load(bytes.NewReader(data), window, treapStore)
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := p.Save(&first); err != nil {
			t.Fatalf("saving accepted state: %v", err)
		}
		p2, err := Load(bytes.NewReader(first.Bytes()), window, treapStore)
		if err != nil {
			t.Fatalf("reloading saved state: %v", err)
		}
		var second bytes.Buffer
		if err := p2.Save(&second); err != nil {
			t.Fatalf("re-saving reloaded state: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save/load/save not stable:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
		if p.Len() != p2.Len() {
			t.Fatalf("reload changed Len: %d vs %d", p.Len(), p2.Len())
		}
		b1, ok1 := p.Bound()
		b2, ok2 := p2.Bound()
		if ok1 != ok2 || (ok1 && b1 != b2 && !(math.IsNaN(b1) && math.IsNaN(b2))) {
			t.Fatalf("reload changed Bound: %v/%v vs %v/%v", b1, ok1, b2, ok2)
		}
	})
}

// persistFuzzWindow is the deterministic observation window the persist
// fuzz target restores against.
func persistFuzzWindow(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.01 + 0.0001*float64(i%17)
	}
	return w
}
