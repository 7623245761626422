package service

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/telemetry"
)

// TestIncrementalRefreshAllocs bounds what a steady-state refresh
// allocates at the ingest shape: 90-day histories at the default window,
// 3 new ticks per combo per refresh. Averaged over ten refreshes, each
// predictor may allocate under a quarter of one 90-day float64 window
// (8 × 25,920 bytes / 4 ≈ 52 KB). Copying a window per predictor — a
// deep-copied history series per combo or a cloned price window — costs
// about that whole window (~207 KB) and fails the bound.
//
// The duration scans draw their run-length buffers (core's runScratch:
// one int32 per run in the window and a histogram as long as the bound's
// rank) from a sync.Pool, which garbage collection empties; a refill would
// charge each refresh worker's buffers, regrown by append, to whichever
// refresh runs next. The collector is therefore off while the test runs,
// and one unmeasured refresh fills the pool first, so the measured
// refreshes see the steady state in which the buffers are reused. Appending the new ticks to the history is the
// feed's cost, not the refresh's, and happens between measurements.
func TestIncrementalRefreshAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	const (
		day       = 24 * 12
		ticks     = 3
		refreshes = 10
	)
	combos := spot.Combos()[:8]
	start := time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)
	hist := history.NewStore()
	gen := pricegen.Generator{Seed: 1}
	if err := gen.Populate(hist, combos, start, 90*day); err != nil {
		t.Fatal(err)
	}
	feed := func() {
		for _, c := range combos {
			cur, _ := hist.Full(c)
			ext, err := gen.Continue(c, cur.Start, cur.Len(), ticks)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range ext.Prices {
				hist.Append(c, cur.Start, v)
			}
		}
	}
	srv, err := New(Config{Source: hist, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	feed()
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	var allocated uint64
	var before, after runtime.MemStats
	incremental := srv.metrics.refreshIncremental.Value()
	for i := 0; i < refreshes; i++ {
		feed()
		runtime.ReadMemStats(&before)
		if err := srv.Refresh(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
	}
	preds := uint64(len(combos) * len(probabilities))
	if got := srv.metrics.refreshIncremental.Value() - incremental; got != refreshes*preds {
		t.Fatalf("%d of %d predictor refreshes were incremental", got, refreshes*preds)
	}
	perPred := allocated / (refreshes * preds)
	const bound = 8 * 90 * day / 4
	t.Logf("%d bytes per predictor per refresh (bound %d)", perPred, bound)
	if perPred >= bound {
		t.Errorf("an incremental refresh allocates %d bytes per predictor, want under %d (a quarter of one 90-day float64 window)",
			perPred, bound)
	}
}
