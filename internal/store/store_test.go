package store

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/faults"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/telemetry"
)

func mustOpenStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return st
}

func TestStoreReplayHistoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := mustOpenStore(t, dir)

	gen := pricegen.Generator{Seed: 31}
	combos := []spot.Combo{
		{Zone: "us-east-1a", Type: "m3.medium"},
		{Zone: "us-east-1b", Type: "c3.large"},
	}
	want := make(map[spot.Combo]*history.Series)
	for _, c := range combos {
		ser, err := gen.Series(c, walT0, 500)
		if err != nil {
			t.Fatalf("Series(%v): %v", c, err)
		}
		want[c] = ser
		if err := st.AppendSeries(c, ser); err != nil {
			t.Fatalf("AppendSeries(%v): %v", c, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2 := mustOpenStore(t, dir)
	defer func() { _ = st2.Close() }()
	hs, n, err := st2.ReplayHistory()
	if err != nil {
		t.Fatalf("ReplayHistory: %v", err)
	}
	if wantN := len(combos) * 500; n != wantN {
		t.Fatalf("replayed %d records, want %d", n, wantN)
	}
	for _, c := range combos {
		got, ok := hs.Full(c)
		if !ok {
			t.Fatalf("replayed history missing %v", c)
		}
		if !got.Start.Equal(want[c].Start) || got.Len() != want[c].Len() {
			t.Fatalf("%v: shape mismatch: %v/%d vs %v/%d",
				c, got.Start, got.Len(), want[c].Start, want[c].Len())
		}
		for i := range got.Prices {
			if got.Prices[i] != want[c].Prices[i] {
				t.Fatalf("%v: price %d diverged: %v != %v", c, i, got.Prices[i], want[c].Prices[i])
			}
		}
	}
}

func TestStoreReplayHistoryEmptyWAL(t *testing.T) {
	st := mustOpenStore(t, t.TempDir())
	defer func() { _ = st.Close() }()
	hs, n, err := st.ReplayHistory()
	if err != nil {
		t.Fatalf("ReplayHistory: %v", err)
	}
	if hs != nil || n != 0 {
		t.Fatalf("empty WAL replayed to %v, %d records", hs, n)
	}
}

func TestStoreReplayHistoryGapFill(t *testing.T) {
	st := mustOpenStore(t, t.TempDir())
	defer func() { _ = st.Close() }()
	c := spot.Combo{Zone: "us-east-1a", Type: "m3.medium"}
	// Ticks at grid steps 0, 1, then a jump to 5: steps 2-4 must carry the
	// step-1 price forward.
	for _, tick := range []struct {
		step  int
		price float64
	}{{0, 0.10}, {1, 0.20}, {5, 0.50}} {
		at := walT0.Add(time.Duration(tick.step) * spot.UpdatePeriod)
		if err := st.AppendTick(c, at, tick.price); err != nil {
			t.Fatalf("AppendTick(step %d): %v", tick.step, err)
		}
	}
	hs, _, err := st.ReplayHistory()
	if err != nil {
		t.Fatalf("ReplayHistory: %v", err)
	}
	ser, ok := hs.Full(c)
	if !ok {
		t.Fatal("combo missing after replay")
	}
	wantPrices := []float64{0.10, 0.20, 0.20, 0.20, 0.20, 0.50}
	if ser.Len() != len(wantPrices) {
		t.Fatalf("series length %d, want %d", ser.Len(), len(wantPrices))
	}
	for i, want := range wantPrices {
		if !spot.SamePrice(ser.Prices[i], want) {
			t.Fatalf("price[%d] = %v, want %v", i, ser.Prices[i], want)
		}
	}
}

func TestStoreReplayHistoryIgnoresDuplicates(t *testing.T) {
	st := mustOpenStore(t, t.TempDir())
	defer func() { _ = st.Close() }()
	c := spot.Combo{Zone: "us-east-1a", Type: "m3.medium"}
	if err := st.AppendTick(c, walT0, 0.10); err != nil {
		t.Fatal(err)
	}
	// Same grid instant again with a different price: first write wins.
	if err := st.AppendTick(c, walT0, 0.99); err != nil {
		t.Fatal(err)
	}
	hs, n, err := st.ReplayHistory()
	if err != nil {
		t.Fatalf("ReplayHistory: %v", err)
	}
	if n != 2 {
		t.Fatalf("record count %d, want 2 (duplicates still count as records)", n)
	}
	ser, _ := hs.Full(c)
	if ser.Len() != 1 || !spot.SamePrice(ser.Prices[0], 0.10) {
		t.Fatalf("duplicate handling wrong: %v", ser.Prices)
	}
}

func TestStoreReplayHistoryRejectsWildGap(t *testing.T) {
	st := mustOpenStore(t, t.TempDir())
	defer func() { _ = st.Close() }()
	c := spot.Combo{Zone: "us-east-1a", Type: "m3.medium"}
	if err := st.AppendTick(c, walT0, 0.10); err != nil {
		t.Fatal(err)
	}
	// A tick 10x the retention window later would LOCF-fill millions of
	// points; replay must refuse instead.
	if err := st.AppendTick(c, walT0.Add(10*history.Retention), 0.20); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.ReplayHistory(); err == nil {
		t.Fatal("ReplayHistory accepted a wild timestamp gap")
	}
}

func TestStoreSnapshotLifecycle(t *testing.T) {
	dir := t.TempDir()
	st := mustOpenStore(t, dir)

	if _, ok, err := st.LoadSnapshot(); err != nil || ok {
		t.Fatalf("fresh store LoadSnapshot: ok=%v err=%v", ok, err)
	}
	for i := 1; i <= 4; i++ {
		if err := st.WriteSnapshot([]byte{byte(i)}); err != nil {
			t.Fatalf("WriteSnapshot(%d): %v", i, err)
		}
	}
	payload, ok, err := st.LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(payload, []byte{4}) {
		t.Fatalf("newest snapshot payload %v, want [4]", payload)
	}
	// Default retention keeps 2 snapshots.
	seqs, err := listSnapshots(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("retained %d snapshots, want 2", len(seqs))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen must continue the sequence, not restart it.
	st2 := mustOpenStore(t, dir)
	defer func() { _ = st2.Close() }()
	if err := st2.WriteSnapshot([]byte{5}); err != nil {
		t.Fatalf("WriteSnapshot after reopen: %v", err)
	}
	payload, ok, err = st2.LoadSnapshot()
	if err != nil || !ok || !bytes.Equal(payload, []byte{5}) {
		t.Fatalf("after reopen: payload %v ok=%v err=%v, want [5]", payload, ok, err)
	}
}

func TestStoreOpenSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	snapDir := filepath.Join(dir, "snapshots")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(snapDir, "snap-crashed.tmp")
	if err := os.WriteFile(stale, []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := mustOpenStore(t, dir)
	defer func() { _ = st.Close() }()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("Open did not sweep the stale temp file")
	}
}

func TestStoreTornBytesSurfacesRepair(t *testing.T) {
	dir := t.TempDir()
	st := mustOpenStore(t, dir)
	c := spot.Combo{Zone: "us-east-1a", Type: "m3.medium"}
	if err := st.AppendTick(c, walT0, 0.10); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "wal", segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpenStore(t, dir)
	defer func() { _ = st2.Close() }()
	if st2.TornBytes() == 0 {
		t.Fatal("TornBytes did not surface the repaired tail")
	}
	if _, n, err := st2.ReplayHistory(); err != nil || n != 0 {
		t.Fatalf("replay after full-record tear: n=%d err=%v", n, err)
	}
}

// segmentFiles reads every WAL segment under dir by name, so a comparison
// also sees where the segments were rotated.
func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); !ok {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, "wal", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestAppendSeriesMatchesAppendTick writes one series through AppendSeries
// and tick by tick through AppendTick, under small segments that rotate
// every few records, and requires the same segment files byte for byte,
// the same error at the same tick and the same wal_appends_total delta:
// with every fsync policy, an invalid price mid-series, the "wal.append"
// fault point firing (failing and tearing) mid-series, and an fsync
// failing after its record was written.
func TestAppendSeriesMatchesAppendTick(t *testing.T) {
	reg := telemetry.NewRegistry()
	RegisterMetrics(reg)
	t.Cleanup(func() { RegisterMetrics(nil) })
	appends := mWALAppends.Load()

	c := spot.Combo{Zone: "us-east-1a", Type: "m3.medium"}
	clean, err := (pricegen.Generator{Seed: 5}).Series(c, walT0, 97)
	if err != nil {
		t.Fatal(err)
	}
	invalid := &history.Series{Start: clean.Start, Step: clean.Step,
		Prices: append([]float64(nil), clean.Prices...)}
	invalid.Prices[41] = math.NaN()

	cases := []struct {
		name  string
		fsync FsyncPolicy
		ser   *history.Series
		rule  *faults.Rule
	}{
		{name: "none", fsync: FsyncNone, ser: clean},
		{name: "always", fsync: FsyncAlways, ser: clean},
		{name: "interval", fsync: FsyncInterval, ser: clean},
		{name: "invalid-price", fsync: FsyncNone, ser: invalid},
		{name: "fault", fsync: FsyncNone, ser: clean,
			rule: &faults.Rule{Op: "wal.append", After: 50, Count: 1}},
		{name: "torn", fsync: FsyncAlways, ser: clean,
			rule: &faults.Rule{Op: "wal.append", After: 60, Count: 1, PartialFrac: 0.5}},
		{name: "fsync-fault", fsync: FsyncAlways, ser: clean,
			rule: &faults.Rule{Op: "wal.fsync", After: 44, Count: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			open := func(dir string) *Store {
				opt := Options{Fsync: tc.fsync, SegmentBytes: 400}
				if tc.rule != nil {
					opt.Faults = faults.New(1)
					opt.Faults.Enable(*tc.rule)
				}
				st, err := Open(dir, opt)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}

			tickDir := t.TempDir()
			st := open(tickDir)
			before := appends.Value()
			var tickErr error
			for i, p := range tc.ser.Prices {
				if err := st.AppendTick(c, tc.ser.TimeAt(i), p); err != nil {
					tickErr = fmt.Errorf("store: appending %v tick %d: %w", c, i, err)
					break
				}
			}
			tickAppends := appends.Value() - before
			_ = st.Close()

			seriesDir := t.TempDir()
			st = open(seriesDir)
			before = appends.Value()
			seriesErr := st.AppendSeries(c, tc.ser)
			seriesAppends := appends.Value() - before
			_ = st.Close()

			if fmt.Sprint(seriesErr) != fmt.Sprint(tickErr) {
				t.Errorf("AppendSeries error %v, per-tick error %v", seriesErr, tickErr)
			}
			if (tc.rule != nil || tc.ser == invalid) == (seriesErr == nil) {
				t.Errorf("AppendSeries error %v: the case should fail iff it plants a defect", seriesErr)
			}
			if seriesAppends != tickAppends {
				t.Errorf("wal_appends_total rose by %d, per-tick by %d", seriesAppends, tickAppends)
			}
			want, got := segmentFiles(t, tickDir), segmentFiles(t, seriesDir)
			if len(want) < 5 {
				t.Fatalf("%d segments: the case should rotate several times", len(want))
			}
			if len(got) != len(want) {
				t.Fatalf("AppendSeries wrote %d segments, per-tick %d", len(got), len(want))
			}
			for name, w := range want {
				if !bytes.Equal(got[name], w) {
					t.Errorf("segment %s differs (%d bytes vs per-tick %d)", name, len(got[name]), len(w))
				}
			}
		})
	}
}
