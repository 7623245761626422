package cluster

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/service"
	"github.com/drafts-go/drafts/internal/spot"
)

var clusterCombos = []spot.Combo{
	{Zone: "us-east-1b", Type: "c4.large"},
	{Zone: "us-east-1c", Type: "c4.large"},
	{Zone: "us-west-1a", Type: "c3.2xlarge"},
}

// newRealWriter builds a full writer service (real histories, real
// refresh) wired to a shipper, exactly as draftsd does.
func newRealWriter(t *testing.T) (*service.Server, *Shipper) {
	t.Helper()
	st := history.NewStore()
	start := time.Now().UTC().Add(-9000 * spot.UpdatePeriod).Truncate(spot.UpdatePeriod)
	if err := (pricegen.Generator{Seed: 31}).Populate(st, clusterCombos, start, 9000); err != nil {
		t.Fatal(err)
	}
	sh := testShipper(10 * time.Millisecond)
	srv, err := service.New(service.Config{
		Source:     st,
		MaxHistory: 9000,
		OnEpoch:    sh.Publish,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	return srv, sh
}

// TestCrossNodeByteEquality replicates a real writer's epoch to a replica
// and asserts the serving contract is byte-identical across nodes: same
// bodies, same ETags, and a 304 on revalidation against either node's
// ETag — regardless of which node minted it.
func TestCrossNodeByteEquality(t *testing.T) {
	writer, sh := newRealWriter(t)
	ts := httptest.NewServer(sh.ShipHandler())
	defer ts.Close()
	replica, rc := newTestReplica(t, ts.URL, ts.Client())
	if _, err := rc.step(t.Context()); err != nil {
		t.Fatal(err)
	}
	assertEpochEqual(t, replica.CurrentEpoch(), writer.CurrentEpoch())

	wh, rh := writer.Handler(), replica.Handler()
	paths := []string{
		"/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99",
		"/v1/predictions?zone=us-west-1a&type=c3.2xlarge&probability=0.95",
		"/v1/tables?combos=us-east-1b/c4.large,us-east-1c/c4.large&probability=0.99",
		"/v1/combos",
	}
	for _, path := range paths {
		wBody, wETag := get(t, wh, path, "")
		rBody, rETag := get(t, rh, path, "")
		if wETag == "" || wETag != rETag {
			t.Fatalf("%s: ETag %q (writer) != %q (replica)", path, wETag, rETag)
		}
		if string(wBody) != string(rBody) {
			t.Fatalf("%s: bodies differ across nodes", path)
		}

		// Revalidation must succeed cross-node: an ETag minted by the writer
		// answers 304 at the replica and vice versa.
		for _, h := range []http.Handler{wh, rh} {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			req.Header.Set("If-None-Match", wETag)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusNotModified {
				t.Fatalf("%s: revalidation answered %d, want 304", path, rec.Code)
			}
			if rec.Body.Len() != 0 {
				t.Fatalf("%s: 304 carried a body", path)
			}
		}
	}
}

// TestReplicaSurfaceByteIdentity is the advise-surface half of the
// cross-node contract: after a real ship stream, the replica's epoch
// holds byte-for-byte the writer's encoded surfaces, and both advise
// (fast path) and fleet answers — successes and refusals — are
// byte-identical across nodes, even though the replica has no histories
// and no predictors. Advise is compared over three fixed targets plus
// 1000 seeded trials.
func TestReplicaSurfaceByteIdentity(t *testing.T) {
	writer, sh := newRealWriter(t)
	ts := httptest.NewServer(sh.ShipHandler())
	defer ts.Close()
	replica, rc := newTestReplica(t, ts.URL, ts.Client())
	if _, err := rc.step(t.Context()); err != nil {
		t.Fatal(err)
	}

	wep, rep := writer.CurrentEpoch(), replica.CurrentEpoch()
	if wep.NumSurfaces() == 0 {
		t.Fatal("writer epoch carries no surfaces")
	}
	if rep.NumSurfaces() != wep.NumSurfaces() {
		t.Fatalf("replica has %d surfaces, writer %d", rep.NumSurfaces(), wep.NumSurfaces())
	}
	for _, k := range wep.SurfaceKeys() {
		wb, _ := wep.Surface(k)
		rb, ok := rep.Surface(k)
		if !ok || string(rb) != string(wb) {
			t.Fatalf("surface %+v not byte-identical across the ship stream", k)
		}
	}

	wh, rh := writer.Handler(), replica.Handler()
	adviseTargets := []string{
		"/v1/advise?zone=us-east-1b&type=c4.large&probability=0.99&duration=30m",
		"/v1/advise?zone=us-west-1a&type=c3.2xlarge&probability=0.95&duration=1h",
		"/v1/advise?zone=us-east-1c&type=c4.large&probability=0.99&duration=2000h", // refusal
	}
	// 1000 seeded trials over every combo and both probabilities. The
	// durations mix short off-grid minutes (mostly guaranteeable, so the
	// success body is compared), whole hours up to a week, and a 90-day
	// tail with off-grid seconds that forces refusals.
	rng := rand.New(rand.NewSource(1))
	probs := []float64{0.95, 0.99}
	drawn := map[string]bool{}
	for trial := 0; trial < 1000; trial++ {
		combo := clusterCombos[rng.Intn(len(clusterCombos))]
		prob := probs[rng.Intn(len(probs))]
		drawn[fmt.Sprint(combo, prob)] = true
		var d time.Duration
		switch trial % 3 {
		case 0:
			d = time.Duration(1+rng.Intn(300)) * time.Minute
		case 1:
			d = time.Duration(1+rng.Intn(168)) * time.Hour
		default:
			d = time.Duration(1+rng.Intn(90*24))*time.Hour + time.Duration(rng.Intn(3600))*time.Second
		}
		adviseTargets = append(adviseTargets, fmt.Sprintf("/v1/advise?zone=%s&type=%s&probability=%v&duration=%s",
			combo.Zone, combo.Type, prob, d))
	}
	if len(drawn) != len(clusterCombos)*len(probs) {
		t.Fatalf("trials drew %d of %d (combo, probability) pairs", len(drawn), len(clusterCombos)*len(probs))
	}
	statuses := map[int]int{}
	for _, target := range adviseTargets {
		wrec := httptest.NewRecorder()
		wh.ServeHTTP(wrec, httptest.NewRequest(http.MethodGet, target, nil))
		rrec := httptest.NewRecorder()
		rh.ServeHTTP(rrec, httptest.NewRequest(http.MethodGet, target, nil))
		if wrec.Code != rrec.Code || wrec.Body.String() != rrec.Body.String() {
			t.Fatalf("%s:\nwriter:  %d %s\nreplica: %d %s",
				target, wrec.Code, wrec.Body.String(), rrec.Code, rrec.Body.String())
		}
		statuses[wrec.Code]++
	}
	if statuses[http.StatusOK] == 0 || statuses[http.StatusConflict] == 0 {
		t.Fatalf("advise statuses %v: the trials must compare both answers and refusals", statuses)
	}

	fleetBody := `{"duration":"30m","probability":0.99,"count":100}`
	post := func(h http.Handler) (int, string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/fleet", strings.NewReader(fleetBody))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	wCode, wBody := post(wh)
	rCode, rBody := post(rh)
	if wCode != http.StatusOK {
		t.Fatalf("writer fleet: %d %s", wCode, wBody)
	}
	if wCode != rCode || wBody != rBody {
		t.Fatalf("fleet answers differ:\nwriter:  %d %s\nreplica: %d %s", wCode, wBody, rCode, rBody)
	}
}

func get(t *testing.T, h http.Handler, path, inm string) ([]byte, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), rec.Header().Get("ETag")
}

// TestWALHandlerWithoutWAL pins the gate: a writer without durable state
// serves 404 on the WAL endpoint and receivers stop asking.
func TestWALHandlerWithoutWAL(t *testing.T) {
	sh := NewShipper(ShipperConfig{})
	rec := httptest.NewRecorder()
	sh.WALHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster/wal", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", rec.Code)
	}
}

func TestNodeStatus(t *testing.T) {
	writer, sh := newRealWriter(t)
	node := &Node{Role: "writer", Self: "http://w:1", Epochs: writer, Shipper: sh}
	st := node.Status()
	if st.Role != "writer" || st.Epoch == 0 || st.ETag == "" || st.Tables == 0 {
		t.Fatalf("writer status %+v", st)
	}
	if st.Ship == nil || st.Ship.Epoch != st.Epoch {
		t.Fatalf("ship stats %+v", st.Ship)
	}

	ts := httptest.NewServer(sh.ShipHandler())
	defer ts.Close()
	replica, rc := newTestReplica(t, ts.URL, ts.Client())
	if _, err := rc.step(t.Context()); err != nil {
		t.Fatal(err)
	}
	rst := (&Node{Role: "replica", Epochs: replica, Receiver: rc}).Status()
	if rst.Epoch != st.Epoch || rst.ETag != st.ETag || rst.EpochLag != 0 {
		t.Fatalf("replica status %+v vs writer %+v", rst, st)
	}

	// The handler round-trips as JSON.
	srv := httptest.NewServer(node.StatusHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("status handler: %d %q", resp.StatusCode, body)
	}
}
