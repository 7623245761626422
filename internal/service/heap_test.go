package service

import (
	"runtime"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/spot"
)

// liveHeap is the heap in use after two collections (the second empties
// sync.Pool victim caches).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestEpochRetainsOneWindowPerCombo bounds the heap an installed epoch
// retains at 24 combos × 90 days, after a cold refresh, an incremental
// refresh and a snapshot restore. A combo's predictors read one price
// window: its full chunks once, plus a partly filled tail chunk per
// predictor. Everything else an entry holds (its price QBETS's history
// and level store, the encoded table and surface; ~8 KB here) gets
// otherPerEntry, well below half a 90-day window (~107 KB), so a second
// window per combo fails the bound (~5.5 MB against ~4.0 MB).
func TestEpochRetainsOneWindowPerCombo(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes what the heap holds")
	}
	const (
		combos = 24
		// A window chunk: 1,021 uint32 ticks and their cached checksum
		// and bounds in 4 KiB. A window of w ticks spans at most
		// w/1021+2 chunks.
		chunkBytes    = 4096
		windowBytes   = (core.DefaultMaxHistory/1021 + 2) * chunkBytes
		otherPerEntry = 24 << 10
	)
	all := spot.Combos()
	var cs []spot.Combo
	for i := 0; len(cs) < combos; i += len(all) / combos {
		cs = append(cs, all[i])
	}
	start := time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)
	gen := pricegen.Generator{Seed: 3}
	n := core.DefaultMaxHistory + 500
	hist := history.NewStore()
	for _, c := range cs {
		s, err := gen.Series(c, start, n)
		if err != nil {
			t.Fatal(err)
		}
		// Room for the ticks fed below, so the history's own growth
		// stays out of the measurement.
		s.Prices = append(make([]float64, 0, n+100), s.Prices...)
		if err := hist.Put(c, s); err != nil {
			t.Fatal(err)
		}
	}
	entries := combos * len(probabilities)
	bound := uint64(combos*windowBytes + entries*(chunkBytes+otherPerEntry))
	check := func(what string, base uint64) {
		t.Helper()
		got := liveHeap() - base
		t.Logf("%s: the epoch retains %.2f MB (bound %.2f MB)", what, float64(got)/1e6, float64(bound)/1e6)
		if got > bound {
			t.Errorf("%s: the epoch retains %d bytes, want at most %d: one window per combo and a tail chunk and %d bytes per entry",
				what, got, bound, otherPerEntry)
		}
	}

	base := liveHeap()
	srv, err := New(Config{Source: hist, RefreshWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	check("cold refresh", base)

	for _, c := range cs {
		ext, err := gen.Continue(c, start, n, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range ext.Prices {
			hist.Append(c, start, v)
		}
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	check("incremental refresh", base)

	payload, err := srv.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	srv = nil
	base = liveHeap() - uint64(cap(payload))
	restored, err := New(Config{Source: hist})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(payload); err != nil {
		t.Fatal(err)
	}
	payload = nil
	check("restore", base)
	runtime.KeepAlive(restored)
}
