package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/spot"
)

// fetch returns the raw response body for a path on the test server.
func fetch(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
	}
	return body
}

// TestSnapshotRestoreServesIdenticalBytes is the warm-restart acceptance
// test: a server restored from a snapshot must serve byte-identical
// prediction responses before any refresh runs.
func TestSnapshotRestoreServesIdenticalBytes(t *testing.T) {
	hist := testStore(t)
	srv, err := New(Config{Source: hist, MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	payload, err := srv.EncodeSnapshot()
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}

	// A brand-new server process: same config, no refresh — only the
	// snapshot.
	restored, err := New(Config{Source: hist, MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(payload); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}

	ts1 := httptest.NewServer(srv.Handler())
	defer ts1.Close()
	ts2 := httptest.NewServer(restored.Handler())
	defer ts2.Close()
	paths := []string{"/v1/combos"}
	for _, c := range testCombos {
		for _, prob := range []float64{0.95, 0.99} {
			paths = append(paths, fmt.Sprintf(
				"/v1/predictions?zone=%s&type=%s&probability=%v", c.Zone, c.Type, prob))
		}
	}
	for _, path := range paths {
		before := fetch(t, ts1, path)
		after := fetch(t, ts2, path)
		if !bytes.Equal(before, after) {
			t.Errorf("GET %s diverged after restore:\n before: %s\n after:  %s",
				path, before, after)
		}
	}
}

// TestSnapshotRestoreResumesEpochSeq pins the replication contract across
// writer restarts: the epoch counter persists in the snapshot, so the
// restore's own install publishes above the pre-crash sequence and
// long-lived replicas never see the writer's numbering run backwards.
func TestSnapshotRestoreResumesEpochSeq(t *testing.T) {
	hist := testStore(t)
	srv, err := New(Config{Source: hist, MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := srv.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	if seq := srv.CurrentEpoch().Seq(); seq != 3 {
		t.Fatalf("writer at epoch %d before restart, want 3", seq)
	}
	payload, err := srv.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := New(Config{Source: hist, MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(payload); err != nil {
		t.Fatal(err)
	}
	if seq := restored.CurrentEpoch().Seq(); seq != 4 {
		t.Fatalf("restore installed epoch %d, want 4 (snapshot counter 3 + restore's install)", seq)
	}
	if err := restored.Refresh(); err != nil {
		t.Fatal(err)
	}
	if seq := restored.CurrentEpoch().Seq(); seq != 5 {
		t.Fatalf("post-restore refresh installed epoch %d, want 5", seq)
	}
}

// TestSnapshotRestoreReplaysTail pins where the history ticks appended
// after the snapshot was cut go: a restore leaves every predictor at the
// snapshot's clock, and the first refresh feeds it the tail.
func TestSnapshotRestoreReplaysTail(t *testing.T) {
	hist := testStore(t)
	srv, err := New(Config{Source: hist, MaxHistory: 9000})
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
	// Ticks arrive while the process is down.
	const extra = 7
	for i := 0; i < extra; i++ {
		for _, c := range testCombos {
			ser, _ := hist.Full(c)
			hist.Append(c, t0, ser.Prices[ser.Len()-1])
		}
	}

	restored, err := New(Config{Source: hist, MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(payload); err != nil {
		t.Fatal(err)
	}
	clocks := func(want time.Time, when string) {
		t.Helper()
		preds := restored.blobs.Load().predictors()
		if len(preds) == 0 {
			t.Fatal("no predictors restored")
		}
		for k, pred := range preds {
			if !pred.Now().Equal(want) {
				t.Errorf("%s/%s/p=%s %s: predictor clock %v, want %v", k.Zone, k.Type, k.Prob, when, pred.Now(), want)
			}
		}
	}
	clocks(t0.Add(time.Duration(9000-1)*spot.UpdatePeriod), "after restore")
	if err := restored.Refresh(); err != nil {
		t.Fatal(err)
	}
	clocks(t0.Add(time.Duration(9000+extra-1)*spot.UpdatePeriod), "after the first refresh")
}

func TestSnapshotRejectsDefects(t *testing.T) {
	srv := testServer(t)
	payload, err := srv.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *Server {
		s, err := New(Config{Source: testStore(t), MaxHistory: 9000})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// A version-1 snapshot carried every predictor's price window inline.
	v1 := []byte(`{"version":1,"as_of":"2016-10-01T00:00:00Z","entries":[{"zone":"us-east-1b",` +
		`"instance_type":"c4.large","probability":0.95,"as_of":"2016-10-01T00:00:00Z",` +
		`"points":[{"bid_usd_per_hour":0.1,"guaranteed_duration_ns":3600000000000}],` +
		`"predictor":{"version":1,"params":{"Probability":0.95},"step_ns":300000000000,"count":2,"prices":[0.1,0.1]}}]}`)
	// A version-2 snapshot carried every table next to its predictor.
	v2 := []byte(`{"version":2,"as_of":"2016-10-01T00:00:00Z","entries":[{"zone":"us-east-1b",` +
		`"instance_type":"c4.large","probability":0.95,"as_of":"2016-10-01T00:00:00Z",` +
		`"points":[{"bid_usd_per_hour":0.1,"guaranteed_duration_ns":3600000000000}],"predictor":{}}]}`)
	for name, in := range map[string][]byte{
		"garbage":     []byte("not json"),
		"bad-version": []byte(`{"version":99,"entries":[{}]}`),
		"empty":       []byte(`{"version":3,"entries":[]}`),
		"v1":          v1,
		"v2":          v2,
	} {
		if err := fresh().RestoreSnapshot(in); err == nil {
			t.Errorf("RestoreSnapshot accepted %s", name)
		}
	}
	for v, in := range [][]byte{v1, v2} {
		if err := fresh().RestoreSnapshot(in); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported snapshot version %d", v+1)) {
			t.Errorf("v%d snapshot: got %v, want an unsupported snapshot version error", v+1, err)
		}
	}
	if err := fresh().RestoreSnapshot(payload); err != nil {
		t.Errorf("RestoreSnapshot rejected a valid snapshot: %v", err)
	}

	// Tables and surfaces derive from the predictors, so an entry without
	// a predictor fails the restore.
	var snap serviceSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Entries[len(snap.Entries)-1].Predictor = nil
	noPred, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	s := fresh()
	if err := s.RestoreSnapshot(noPred); err == nil || !strings.Contains(err.Error(), "has no predictor") {
		t.Errorf("predictor-less entry: got %v, want a has-no-predictor error", err)
	}
	if s.CurrentEpoch() != nil {
		t.Error("predictor-less snapshot installed an epoch")
	}

	// The history a restore re-slices windows from must reproduce them.
	for name, tc := range map[string]struct {
		mutate func(*history.Series) *history.Series
		want   string
	}{
		"series-shorter-than-window": {
			func(s *history.Series) *history.Series { return s.Slice(1, s.Len()) },
			"window points"},
		"clock-off-grid": {
			func(s *history.Series) *history.Series { s.Start = s.Start.Add(time.Minute); return s },
			"not on the series grid"},
		"altered-price": {
			func(s *history.Series) *history.Series { s.Prices[s.Len()/2] += spot.PriceTick; return s },
			"checksum"},
	} {
		src := history.NewStore()
		for _, c := range testCombos {
			ser, _ := testStore(t).Full(c)
			if c == testCombos[1] {
				ser = tc.mutate(ser)
			}
			if err := src.Put(c, ser); err != nil {
				t.Fatal(err)
			}
		}
		s, err := New(Config{Source: src, MaxHistory: 9000})
		if err != nil {
			t.Fatal(err)
		}
		err = s.RestoreSnapshot(payload)
		if err == nil {
			t.Errorf("RestoreSnapshot accepted %s", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
		if s.CurrentEpoch() != nil {
			t.Errorf("%s: failed restore installed an epoch", name)
		}
	}
}

func TestEncodeSnapshotEmptyServer(t *testing.T) {
	srv, err := New(Config{Source: history.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.EncodeSnapshot(); err == nil {
		t.Fatal("EncodeSnapshot succeeded with no tables")
	}
}

// memDurable records Durable calls for assertion.
type memDurable struct {
	snapshots [][]byte
	compacted []time.Time
}

func (m *memDurable) WriteSnapshot(p []byte) error {
	m.snapshots = append(m.snapshots, append([]byte(nil), p...))
	return nil
}

func (m *memDurable) CompactBefore(oldest time.Time) (int, error) {
	m.compacted = append(m.compacted, oldest)
	return 0, nil
}

func TestRefreshPersistsThroughDurable(t *testing.T) {
	durable := &memDurable{}
	srv, err := New(Config{Source: testStore(t), MaxHistory: 9000, Durable: durable})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	if len(durable.snapshots) != 1 {
		t.Fatalf("refresh wrote %d snapshots, want 1", len(durable.snapshots))
	}
	if len(durable.compacted) != 1 {
		t.Fatalf("refresh requested %d compactions, want 1", len(durable.compacted))
	}
	// The snapshot written must be restorable.
	restored, err := New(Config{Source: testStore(t), MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(durable.snapshots[0]); err != nil {
		t.Fatalf("durable snapshot does not restore: %v", err)
	}
}

func TestPreRefreshHookRuns(t *testing.T) {
	calls := 0
	srv, err := New(Config{
		Source:     testStore(t),
		MaxHistory: 9000,
		PreRefresh: func() error { calls++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("PreRefresh ran %d times, want 1", calls)
	}
	// A failing hook must not fail the refresh.
	srv.cfg.PreRefresh = func() error { calls++; return fmt.Errorf("boom") }
	if err := srv.Refresh(); err != nil {
		t.Fatalf("refresh failed on PreRefresh error: %v", err)
	}
	if calls != 2 {
		t.Fatalf("PreRefresh ran %d times, want 2", calls)
	}
}

func TestRefreshWorkersConfig(t *testing.T) {
	if _, err := New(Config{Source: history.NewStore(), RefreshWorkers: -1}); err == nil {
		t.Fatal("negative RefreshWorkers accepted")
	}
	// A single worker must still complete a full refresh.
	srv, err := New(Config{Source: testStore(t), MaxHistory: 9000, RefreshWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	if n := srv.CurrentEpoch().NumTables(); n != len(testCombos)*2 {
		t.Fatalf("single-worker refresh built %d tables, want %d", n, len(testCombos)*2)
	}
}
