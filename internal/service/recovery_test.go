package service

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/store"
)

// recoveryRig is a writer's durable environment: a live price archive
// whose ticks are journaled, interleaved across combos, to a real store
// in small WAL segments. The newest tick lags the wall clock by lag, so
// a window of DefaultMaxHistory points reaches past now - Retention.
type recoveryRig struct {
	t      *testing.T
	dir    string
	opts   store.Options
	gen    pricegen.Generator
	start  time.Time
	hist   *history.Store
	st     *store.Store
	mirror *history.Store // a second archive fed the same ticks, or nil
}

const recoveryLag = 12 * time.Hour

func newRecoveryRig(t *testing.T) *recoveryRig {
	t.Helper()
	// A little more than the retention window, so compaction has whole
	// segments to remove.
	n := int(history.Retention/spot.UpdatePeriod) + 300
	end := time.Now().UTC().Add(-recoveryLag).Truncate(spot.UpdatePeriod)
	r := &recoveryRig{
		t:     t,
		dir:   t.TempDir(),
		opts:  store.Options{SegmentBytes: 8 << 10},
		gen:   pricegen.Generator{Seed: 31},
		start: end.Add(-time.Duration(n) * spot.UpdatePeriod),
		hist:  history.NewStore(),
	}
	if err := r.gen.Populate(r.hist, testCombos, r.start, n); err != nil {
		t.Fatal(err)
	}
	r.open()
	t.Cleanup(func() { _ = r.st.Close() })
	series := make([]*history.Series, len(testCombos))
	for i, c := range testCombos {
		series[i], _ = r.hist.Full(c)
	}
	for i := 0; i < n; i++ {
		for j, c := range testCombos {
			if err := r.st.AppendTick(c, series[j].TimeAt(i), series[j].Prices[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.st.Sync(); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *recoveryRig) open() {
	r.t.Helper()
	st, err := store.Open(r.dir, r.opts)
	if err != nil {
		r.t.Fatal(err)
	}
	r.st = st
}

// announce appends k ticks per combo, interleaved, to the live archive,
// the mirror (if any) and the WAL.
func (r *recoveryRig) announce(k int) error {
	exts := make([]*history.Series, len(testCombos))
	for j, c := range testCombos {
		cur, _ := r.hist.Full(c)
		ext, err := r.gen.Continue(c, r.start, cur.Len(), k)
		if err != nil {
			return err
		}
		exts[j] = ext
	}
	for i := 0; i < k; i++ {
		for j, c := range testCombos {
			at, price := exts[j].TimeAt(i), exts[j].Prices[i]
			r.hist.Append(c, r.start, price)
			if r.mirror != nil {
				r.mirror.Append(c, r.start, price)
			}
			if err := r.st.AppendTick(c, at, price); err != nil {
				return err
			}
		}
	}
	return r.st.Sync()
}

// segments counts the WAL segment files on disk.
func (r *recoveryRig) segments() int {
	r.t.Helper()
	files, err := filepath.Glob(filepath.Join(r.dir, "wal", "*.log"))
	if err != nil {
		r.t.Fatal(err)
	}
	return len(files)
}

// writer builds the never-stopped server over the live archive, with a
// PreRefresh announcing three ticks per combo.
func (r *recoveryRig) writer() *Server {
	r.t.Helper()
	srv, err := New(Config{
		Source:     r.hist,
		Durable:    r.st,
		PreRefresh: func() error { return r.announce(3) },
	})
	if err != nil {
		r.t.Fatal(err)
	}
	return srv
}

// recover runs the daemon's warm-restart sequence on the data dir: Open ->
// ReplayHistory -> LoadSnapshot -> New -> RestoreSnapshot. The restored
// server's archive becomes the rig's mirror.
func (r *recoveryRig) recover() (*Server, error) {
	r.t.Helper()
	if err := r.st.Close(); err != nil {
		r.t.Fatal(err)
	}
	r.open()
	replayed, records, err := r.st.ReplayHistory()
	if err != nil || records == 0 {
		r.t.Fatalf("ReplayHistory: %d records, %v", records, err)
	}
	payload, ok, err := r.st.LoadSnapshot()
	if err != nil || !ok {
		r.t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
	}
	r.mirror = replayed
	srv, err := New(Config{Source: replayed, Durable: r.st})
	if err != nil {
		r.t.Fatal(err)
	}
	return srv, srv.RestoreSnapshot(payload)
}

// TestWALCompactionKeepsRestoreWindows pins the compaction cutoff: with
// ticks lagging the wall clock by hours, every predictor window reaches
// past now - Retention, and compaction must keep those ticks or the
// restore cannot re-slice its windows.
func TestWALCompactionKeepsRestoreWindows(t *testing.T) {
	r := newRecoveryRig(t)
	segs := r.segments()
	w := r.writer()
	for i := 0; i < 3; i++ {
		if err := w.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	if after := r.segments(); after >= segs {
		t.Fatalf("compaction removed nothing: %d segments before, %d after", segs, after)
	}
	restored, err := r.recover()
	if err != nil {
		t.Fatalf("restore after compaction: %v", err)
	}
	for _, c := range testCombos {
		ser, _ := r.mirror.Full(c)
		if !ser.Start.After(r.start) {
			t.Errorf("%s: replayed series starts at %v; compaction kept the whole log", c, ser.Start)
		}
	}
	if n := len(restored.blobs.Load().preds); n != 2*len(testCombos) {
		t.Fatalf("restored %d predictors, want %d", n, 2*len(testCombos))
	}
}

// TestRecoveryEquivalence is the crash-recovery contract end to end: after
// refreshes, compaction and a warm restart through a real store, every
// restored predictor saves the bytes it saved before the crash, and after
// more ticks the restored server serves tables and advise surfaces
// byte-equal to a server that never stopped.
func TestRecoveryEquivalence(t *testing.T) {
	r := newRecoveryRig(t)
	w := r.writer()
	const refreshes = 4
	for i := 0; i < refreshes; i++ {
		if err := w.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.st.CompactBefore(w.walCutoff(time.Now().UTC())); err != nil {
		t.Fatal(err)
	}
	before := map[tableKey][]byte{}
	for k, pred := range w.blobs.Load().preds {
		var buf bytes.Buffer
		if err := pred.Save(&buf); err != nil {
			t.Fatal(err)
		}
		before[k] = buf.Bytes()
	}

	restored, err := r.recover()
	if err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	restoredPreds := restored.blobs.Load().preds
	if len(restoredPreds) != len(before) {
		t.Fatalf("restored %d predictors, want %d", len(restoredPreds), len(before))
	}
	for k, pred := range restoredPreds {
		var buf bytes.Buffer
		if err := pred.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), before[k]) {
			t.Errorf("%s/p=%v: restored predictor saves different bytes", k.combo, k.prob)
		}
	}

	// The reference server keeps running; it no longer owns the store.
	w.cfg.PreRefresh = nil
	w.cfg.Durable = nil
	for i := 0; i < 3; i++ {
		if err := r.announce(5); err != nil {
			t.Fatal(err)
		}
		if err := w.Refresh(); err != nil {
			t.Fatal(err)
		}
		if err := restored.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	we, re := w.CurrentEpoch(), restored.CurrentEpoch()
	if got, want := len(re.Keys()), len(we.Keys()); got != want || want == 0 {
		t.Fatalf("restored server has %d tables, reference %d", got, want)
	}
	for _, k := range we.Keys() {
		a, _ := we.Blob(k)
		b, ok := re.Blob(k)
		if !ok || !bytes.Equal(a, b) {
			t.Errorf("table %v diverged after restart:\n reference: %s\n restored:  %s", k, a, b)
		}
	}
	if got, want := len(re.SurfaceKeys()), len(we.SurfaceKeys()); got != want || want == 0 {
		t.Fatalf("restored server has %d surfaces, reference %d", got, want)
	}
	for _, k := range we.SurfaceKeys() {
		a, _ := we.Surface(k)
		b, ok := re.Surface(k)
		if !ok || !bytes.Equal(a, b) {
			t.Errorf("advise surface %v diverged after restart", k)
		}
	}
}

// sameEpoch reports every way two epochs' served content differs: table
// blobs, advise surfaces, and the checksum over both and the refresh time.
func sameEpoch(t *testing.T, what string, got, want *Epoch) {
	t.Helper()
	if len(got.Keys()) != len(want.Keys()) || len(got.SurfaceKeys()) != len(want.SurfaceKeys()) {
		t.Fatalf("%s: %d tables and %d surfaces, want %d and %d", what,
			len(got.Keys()), len(got.SurfaceKeys()), len(want.Keys()), len(want.SurfaceKeys()))
	}
	for _, k := range want.Keys() {
		a, _ := want.Blob(k)
		if b, ok := got.Blob(k); !ok || !bytes.Equal(a, b) {
			t.Errorf("%s: table %v differs", what, k)
		}
	}
	for _, k := range want.SurfaceKeys() {
		a, _ := want.Surface(k)
		if b, ok := got.Surface(k); !ok || !bytes.Equal(a, b) {
			t.Errorf("%s: advise surface %v differs", what, k)
		}
	}
	if got.Checksum() != want.Checksum() {
		t.Errorf("%s: checksum %x, want %x", what, got.Checksum(), want.Checksum())
	}
}

// TestRestoreIsPreCrashEpoch restarts a writer whose WAL holds a tail
// newer than its last snapshot: 100 ticks, and 300, more than a day of
// them. The restored epoch must be the pre-crash epoch byte for byte —
// tables, surfaces and checksum — and after one refresh it must equal the
// epoch of a writer that never stopped.
func TestRestoreIsPreCrashEpoch(t *testing.T) {
	for _, tail := range []int{100, 300} {
		t.Run(fmt.Sprintf("tail_%d", tail), func(t *testing.T) {
			r := newRecoveryRig(t)
			w := r.writer()
			at := time.Now().UTC()
			w.now = func() time.Time { return at }
			for i := 0; i < 2; i++ {
				if err := w.Refresh(); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.announce(tail); err != nil {
				t.Fatal(err)
			}
			restored, err := r.recover()
			if err != nil {
				t.Fatalf("RestoreSnapshot: %v", err)
			}
			sameEpoch(t, "restored epoch", restored.CurrentEpoch(), w.CurrentEpoch())

			// The reference writer keeps running; it no longer owns the store.
			w.cfg.PreRefresh = nil
			w.cfg.Durable = nil
			restored.now = w.now
			for _, srv := range []*Server{w, restored} {
				if err := srv.Refresh(); err != nil {
					t.Fatal(err)
				}
			}
			sameEpoch(t, "epoch after the first refresh", restored.CurrentEpoch(), w.CurrentEpoch())
		})
	}
}

// TestSnapshotSizeAtDefaultScale bounds the snapshot at draftsd's default
// scale, 60 combos x 90 days: without tables or price windows it holds
// only detector state.
func TestSnapshotSizeAtDefaultScale(t *testing.T) {
	combos := spot.Combos()[:60]
	hist := history.NewStore()
	if err := (pricegen.Generator{Seed: 31}).Populate(hist, combos, t0, 90*24*12); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Source: hist})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	payload, err := srv.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) > 1<<20 {
		t.Errorf("snapshot is %d bytes at 60 combos x 90 days, want <= 1 MiB", len(payload))
	}
	restored, err := New(Config{Source: hist})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(payload); err != nil {
		t.Fatal(err)
	}
}
