package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/core"
)

func epochBlobs() map[BlobKey][]byte {
	return map[BlobKey][]byte{
		{Zone: "z1", Type: "t1", Prob: "0.95"}: []byte(`{"a":1}`),
		{Zone: "z1", Type: "t1", Prob: "0.99"}: []byte(`{"b":2}`),
	}
}

// epochSurfaces gives every key of blobs a valid one-rung surface.
func epochSurfaces(t *testing.T, blobs map[BlobKey][]byte) map[BlobKey][]byte {
	t.Helper()
	surf, err := core.NewAdviseSurface(0.99, 5*time.Minute, []uint32{100}, []uint32{12})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[BlobKey][]byte, len(blobs))
	for k := range blobs {
		out[k] = encodeSurface(surf)
	}
	return out
}

func TestNewEpochValidation(t *testing.T) {
	asOf := time.Now().UTC()
	combos := []byte(`{"combos":[]}`)
	surfaces := epochSurfaces(t, epochBlobs())
	if _, err := NewEpochFull(0, asOf, combos, epochBlobs(), surfaces); err == nil {
		t.Error("zero sequence accepted")
	}
	if _, err := NewEpochFull(1, time.Time{}, combos, epochBlobs(), surfaces); err == nil {
		t.Error("zero asOf accepted")
	}
	if _, err := NewEpochFull(1, asOf, combos, nil, nil); err == nil {
		t.Error("empty blob set accepted")
	}
	if _, err := NewEpochFull(1, asOf, nil, epochBlobs(), surfaces); err == nil {
		t.Error("empty combo listing accepted")
	}
	bad := map[BlobKey][]byte{{Zone: "z"}: nil}
	if _, err := NewEpochFull(1, asOf, combos, bad, epochSurfaces(t, bad)); err == nil {
		t.Error("key with empty components accepted")
	}
	// Every entry carries a table and a surface: the key sets must match.
	if _, err := NewEpochFull(1, asOf, combos, epochBlobs(), nil); err == nil {
		t.Error("tables without surfaces accepted")
	}
	other := epochSurfaces(t, epochBlobs())
	delete(other, BlobKey{Zone: "z1", Type: "t1", Prob: "0.95"})
	other[BlobKey{Zone: "z2", Type: "t1", Prob: "0.95"}] = surfaces[BlobKey{Zone: "z1", Type: "t1", Prob: "0.99"}]
	if _, err := NewEpochFull(1, asOf, combos, epochBlobs(), other); err == nil {
		t.Error("surface key set differing from the table key set accepted")
	}
	corrupt := epochSurfaces(t, epochBlobs())
	corrupt[BlobKey{Zone: "z1", Type: "t1", Prob: "0.95"}] = []byte{1}
	if _, err := NewEpochFull(1, asOf, combos, epochBlobs(), corrupt); err == nil {
		t.Error("undecodable surface accepted")
	}
}

func TestEpochAccessorsAndChecksum(t *testing.T) {
	asOf := time.Date(2016, 10, 1, 0, 0, 0, 0, time.UTC)
	surfaces := epochSurfaces(t, epochBlobs())
	ep, err := NewEpochFull(7, asOf, []byte("combos"), epochBlobs(), surfaces)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Seq() != 7 || !ep.AsOf().Equal(asOf) || ep.NumTables() != 2 {
		t.Fatalf("accessors: seq=%d asOf=%v tables=%d", ep.Seq(), ep.AsOf(), ep.NumTables())
	}
	keys := ep.Keys()
	if len(keys) != 2 || keys[0].Prob != "0.95" || keys[1].Prob != "0.99" {
		t.Fatalf("keys not sorted: %+v", keys)
	}

	// The checksum is content-addressed: same content at a different seq
	// hashes identically (seq is writer-local bookkeeping), any body change
	// hashes differently.
	same, _ := NewEpochFull(99, asOf, []byte("combos"), epochBlobs(), surfaces)
	if same.Checksum() != ep.Checksum() {
		t.Error("checksum depends on sequence number")
	}
	changed := epochBlobs()
	changed[BlobKey{Zone: "z1", Type: "t1", Prob: "0.95"}] = []byte(`{"a":2}`)
	diff, _ := NewEpochFull(7, asOf, []byte("combos"), changed, surfaces)
	if diff.Checksum() == ep.Checksum() {
		t.Error("checksum missed a body change")
	}
	surf, err := core.NewAdviseSurface(0.99, 5*time.Minute, []uint32{100}, []uint32{13})
	if err != nil {
		t.Fatal(err)
	}
	moved := epochSurfaces(t, epochBlobs())
	moved[BlobKey{Zone: "z1", Type: "t1", Prob: "0.99"}] = encodeSurface(surf)
	if other, _ := NewEpochFull(7, asOf, []byte("combos"), epochBlobs(), moved); other.Checksum() == ep.Checksum() {
		t.Error("checksum missed a surface change")
	}

	// ETag is recomputed from (asOf, count) — the writer's own derivation —
	// so it cannot drift from what a writer at the same content serves.
	if ep.ETag() != same.ETag() || ep.ETag() == "" {
		t.Errorf("ETags %q vs %q", ep.ETag(), same.ETag())
	}
}

func TestWriterEpochSequenceAdvances(t *testing.T) {
	srv := testServer(t)
	first := srv.CurrentEpoch()
	if first == nil || first.Seq() != 1 {
		t.Fatalf("first epoch %+v", first)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	second := srv.CurrentEpoch()
	if second.Seq() != 2 {
		t.Fatalf("second refresh produced epoch %d, want 2", second.Seq())
	}
}

func TestOnEpochHookFires(t *testing.T) {
	var published []uint64
	srv, err := New(Config{
		Source:     testStore(t),
		MaxHistory: 9000,
		OnEpoch:    func(ep *Epoch) { published = append(published, ep.Seq()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	if len(published) != 2 || published[0] != 1 || published[1] != 2 {
		t.Fatalf("hook saw %v, want [1 2]", published)
	}
}

func TestReplicaGuards(t *testing.T) {
	if _, err := NewReplica(Config{Source: testStore(t)}); err == nil {
		t.Error("replica with a source accepted")
	}
	if _, err := NewReplica(Config{PreRefresh: func() error { return nil }}); err == nil {
		t.Error("replica with a pre-refresh hook accepted")
	}

	replica, err := NewReplica(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if replica.role != roleReplica {
		t.Errorf("role %q", replica.role)
	}
	if testServer(t).role != roleWriter {
		t.Error("writer role mislabelled")
	}
	if replica.CurrentEpoch() != nil {
		t.Error("fresh replica has an epoch")
	}
	if err := replica.Refresh(); err == nil {
		t.Error("replica Refresh succeeded")
	}
	if err := replica.Start(t.Context()); err == nil {
		t.Error("replica Start succeeded")
	}
}

func TestHealthReportsRoleAndEpoch(t *testing.T) {
	srv := testServer(t)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var body struct {
		Role  string `json:"role"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Role != "writer" || body.Epoch != 1 {
		t.Fatalf("health reported role=%q epoch=%d", body.Role, body.Epoch)
	}
}
