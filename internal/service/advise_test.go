package service

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/trace"
)

// TestAdviseSurfaceScanEquivalence is the acceptance gate for the advise
// fast path: over randomized (combo, probability, duration) trials the
// surface lookup must answer with exactly the bytes the bid-escalation
// scan produces — same status, same body, successes and refusals alike.
// The oracle (marshalHandler) runs the scan over the epoch's predictors,
// so the two handlers share one server and one epoch.
func TestAdviseSurfaceScanEquivalence(t *testing.T) {
	srv := testServer(t)
	fast := srv.Handler()
	scan := srv.marshalHandler()
	rng := rand.New(rand.NewSource(7))
	probs := []float64{0.95, 0.99}

	const trials = 1000
	successes, refusals := 0, 0
	for trial := 0; trial < trials; trial++ {
		combo := testCombos[rng.Intn(len(testCombos))]
		prob := probs[rng.Intn(len(probs))]
		var d time.Duration
		switch trial % 3 {
		case 0: // short off-grid: mostly guaranteeable
			d = time.Duration(1+rng.Intn(300)) * time.Minute
		case 1: // grid-aligned hours
			d = time.Duration(1+rng.Intn(168)) * time.Hour
		default: // long, second-granular tail: mostly refusals
			d = time.Duration(1+rng.Intn(90*24))*time.Hour + time.Duration(rng.Intn(3600))*time.Second
		}
		target := fmt.Sprintf("/v1/advise?zone=%s&type=%s&probability=%v&duration=%s",
			combo.Zone, combo.Type, prob, d)
		fastCode, _, fastBody := getBody(t, fast, target)
		scanCode, _, scanBody := getBody(t, scan, target)
		if fastCode != scanCode || !bytes.Equal(fastBody, scanBody) {
			t.Fatalf("trial %d: %s:\nfast: %d %s\nscan: %d %s",
				trial, target, fastCode, fastBody, scanCode, scanBody)
		}
		if fastCode == http.StatusOK {
			successes++
		} else {
			refusals++
		}
	}
	// The trial mix must exercise both response shapes, or the
	// equivalence proved nothing about one of them.
	if successes == 0 || refusals == 0 {
		t.Fatalf("degenerate trial mix: %d successes, %d refusals", successes, refusals)
	}
}

// TestAdviseFastPathSpellings pins the request spellings that must take
// (or decline) the fast path while staying byte-identical to the scan:
// default probability, non-canonical probability spellings, unknown
// combos, invalid durations, oddly delimited queries, and the account
// parameter (resolved through resolveCombo).
func TestAdviseFastPathSpellings(t *testing.T) {
	srv := testServer(t)
	fast := srv.Handler()
	scan := srv.marshalHandler()
	targets := []string{
		"/v1/advise?zone=us-east-1b&type=c4.large&duration=1h",                    // default probability
		"/v1/advise?zone=us-east-1b&type=c4.large&probability=0.990&duration=1h",  // non-canonical prob
		"/v1/advise?zone=us-east-1%62&type=c4.large&probability=0.99&duration=1h", // escaped -> slow parse
		"/v1/advise?zone=nowhere-1x&type=c4.large&probability=0.99&duration=1h",   // 404 on both
		"/v1/advise?zone=us-east-1b&type=c4.large&probability=0.5&duration=1h",    // unsupported level
		"/v1/advise?zone=us-east-1b&type=c4.large&probability=2&duration=1h",      // 400 on both
		"/v1/advise?zone=us-east-1b&type=c4.large&duration=bogus",                 // 400 on both
		"/v1/advise?zone=us-east-1b&type=c4.large&duration=-2h",                   // 400 on both
		"/v1/advise?zone=us-east-1b&type=c4.large",                                // missing duration
		"/v1/advise?zone=us-east-1b&type=c4.large&duration=1h&account=acct-1",     // account -> resolveCombo
		"/v1/advise?zone&zone=us-east-1b&type=c4.large&duration=1h",               // bare key: first zone is ""
		"/v1/advise?zone=us-east-1b;x&type=c4.large&duration=1h",                  // ';' segment is dropped
		"/v1/advise?zone=us-east-1b;x&zone=us-east-1c&type=c4.large&duration=1h",  // ... so the next zone counts
	}
	for _, target := range targets {
		fastCode, _, fastBody := getBody(t, fast, target)
		scanCode, _, scanBody := getBody(t, scan, target)
		if fastCode != scanCode || !bytes.Equal(fastBody, scanBody) {
			t.Errorf("%s:\nfast: %d %s\nscan: %d %s", target, fastCode, fastBody, scanCode, scanBody)
		}
	}
}

// TestAdviseFastZeroAllocs extends the serving zero-allocation contract
// to the advise fast path: a surface-served quote performs zero heap
// allocations — on the writer, on a server with tracing configured at
// the production sampling rate, and on a replica serving a rebuilt
// epoch (surfaces included, the way the cluster receiver installs them).
func TestAdviseFastZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	tracer, err := trace.New(trace.Config{SampleRate: 0.01, Seed: 0, Now: time.Now})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := New(Config{Source: testStore(t), MaxHistory: 9000, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	if err := traced.Refresh(); err != nil {
		t.Fatal(err)
	}
	writer := testServer(t)
	wep := writer.CurrentEpoch()
	blobs := make(map[BlobKey][]byte, wep.NumTables())
	for _, k := range wep.Keys() {
		b, _ := wep.Blob(k)
		blobs[k] = b
	}
	surfaces := make(map[BlobKey][]byte, wep.NumTables())
	for _, k := range wep.SurfaceKeys() {
		b, _ := wep.Surface(k)
		surfaces[k] = b
	}
	rebuilt, err := NewEpochFull(wep.Seq(), wep.AsOf(), wep.Combos(), blobs, surfaces)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := NewReplica(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.InstallEpoch(rebuilt); err != nil {
		t.Fatal(err)
	}
	servers := []struct {
		name string
		srv  *Server
	}{
		{"writer", writer},
		{"traced_1pct_unsampled", traced},
		{"replica_installed_epoch", replica},
	}
	for _, tc := range servers {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.srv.Handler()
			req := httptest.NewRequest(http.MethodGet,
				"/v1/advise?zone=us-east-1b&type=c4.large&probability=0.99&duration=1h", nil)
			rec := httptest.NewRecorder()
			allocs := testing.AllocsPerRun(200, func() {
				rec.Body.Reset()
				h.ServeHTTP(rec, req)
			})
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			if allocs != 0 {
				t.Errorf("advise fast path allocated %.1f times per request, want 0", allocs)
			}
		})
	}
}

// TestReplicaAdviseFromSurfaces pins the capability the surfaces ship to
// buy: a stateless replica — no histories, no predictors — answers
// /v1/advise from its installed epoch's surfaces, byte-identical to the
// writer.
func TestReplicaAdviseFromSurfaces(t *testing.T) {
	writer := testServer(t)
	wep := writer.CurrentEpoch()
	blobs := make(map[BlobKey][]byte, wep.NumTables())
	for _, k := range wep.Keys() {
		b, _ := wep.Blob(k)
		blobs[k] = b
	}
	surfaces := make(map[BlobKey][]byte, wep.NumTables())
	for _, k := range wep.SurfaceKeys() {
		b, _ := wep.Surface(k)
		surfaces[k] = b
	}
	rebuilt, err := NewEpochFull(wep.Seq(), wep.AsOf(), wep.Combos(), blobs, surfaces)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := NewReplica(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.InstallEpoch(rebuilt); err != nil {
		t.Fatal(err)
	}
	targets := []string{
		"/v1/advise?zone=us-east-1b&type=c4.large&probability=0.99&duration=1h",
		"/v1/advise?zone=us-west-1a&type=c3.2xlarge&probability=0.95&duration=90m",
		"/v1/advise?zone=us-east-1c&type=c4.large&probability=0.99&duration=2000h", // refusal
	}
	for _, target := range targets {
		wCode, _, wBody := getBody(t, writer.Handler(), target)
		rCode, _, rBody := getBody(t, replica.Handler(), target)
		if wCode != rCode || !bytes.Equal(wBody, rBody) {
			t.Errorf("%s:\nwriter:  %d %s\nreplica: %d %s", target, wCode, wBody, rCode, rBody)
		}
	}
}
