package service

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/obfuscate"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/tenant"
	"github.com/drafts-go/drafts/internal/trace"
)

func getBody(t *testing.T, h http.Handler, target string) (int, http.Header, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Header(), rec.Body.Bytes()
}

// TestCachedGetZeroAllocs is the acceptance criterion for the serving fast
// path: a cached single-table GET performs zero heap allocations — both on
// a bare server and with tracing enabled at a production sampling rate
// (the unsampled request path must not pay for observability it isn't
// using).
func TestCachedGetZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	// Seed 0 is chosen so the tracer's first 400 deterministic trace IDs
	// all fall outside the 1% sampling threshold: the loop below pins the
	// unsampled hot path specifically. Sampling itself is covered by the
	// trace package's own tests.
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
	// A replica serving a replicated epoch must keep the same guarantee:
	// rebuild the writer's epoch the way the cluster receiver does and
	// install it into a replica server.
	writer := testServer(t)
	wep := writer.CurrentEpoch()
	blobs := make(map[BlobKey][]byte, wep.NumTables())
	surfaces := make(map[BlobKey][]byte, wep.NumTables())
	for _, k := range wep.Keys() {
		blobs[k], _ = wep.Blob(k)
		surfaces[k], _ = wep.Surface(k)
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
	// An authenticated tenant-scoped server must keep the guarantee too:
	// the key is hashed on the stack, the token bucket is branch-and-mutex,
	// and the tenant's obfuscated view is a precomputed blob. The tenant's
	// visible us-east-1b is physically us-east-1c, so a passing run proves
	// the renamed-view path specifically (not the identity alias).
	treg, err := tenant.New(tenant.Config{RPS: 1e9}, []tenant.Spec{
		{ID: "acme", Key: "ak_zero_alloc", Account: "acct-42"},
	})
	if err != nil {
		t.Fatal(err)
	}
	authed, err := New(Config{Source: testStore(t), MaxHistory: 9000,
		Tenants: treg,
		AccountMappings: map[string]obfuscate.Mapping{"acct-42": {
			"us-east-1b": "us-east-1c",
			"us-east-1c": "us-east-1b",
			"us-west-1a": "us-west-1a",
		}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := authed.Refresh(); err != nil {
		t.Fatal(err)
	}
	servers := []struct {
		name string
		srv  *Server
		key  string
	}{
		{"bare", writer, ""},
		{"traced_1pct_unsampled", traced, ""},
		{"replica_installed_epoch", replica, ""},
		{"authenticated_tenant_view", authed, "ak_zero_alloc"},
	}
	for _, tc := range servers {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.srv.Handler()
			req := httptest.NewRequest(http.MethodGet,
				"/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99", nil)
			if tc.key != "" {
				req.Header.Set("Authorization", "Bearer "+tc.key)
			}
			rec := httptest.NewRecorder()
			// AllocsPerRun's warm-up call absorbs the recorder's one-time header
			// snapshot; Body.Reset keeps the buffer capacity across runs.
			allocs := testing.AllocsPerRun(200, func() {
				rec.Body.Reset()
				h.ServeHTTP(rec, req)
			})
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d", rec.Code)
			}
			if allocs != 0 {
				t.Errorf("cached GET allocated %.1f times per request, want 0", allocs)
			}
			if hdr := rec.Header().Get(requestIDHeader); tc.srv.cfg.Tracer != nil && hdr != "" {
				t.Errorf("unsampled traced GET stamped X-Request-Id %q; correlation headers must stay lazy", hdr)
			}
		})
	}
}

// TestFastPathMatchesMarshal asserts the blob fast path is invisible to
// clients: byte-identical bodies to the marshal-per-request oracle, for
// canonical, non-canonical, percent-escaped, and oddly delimited request
// spellings.
func TestFastPathMatchesMarshal(t *testing.T) {
	srv := testServer(t)
	fast := srv.Handler()
	slow := srv.marshalHandler()
	targets := []string{
		"/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99",
		"/v1/predictions?zone=us-east-1b&type=c4.large", // default probability
		"/v1/predictions?zone=us-west-1a&type=c3.2xlarge&probability=0.95",
		"/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.990",  // non-canonical spelling
		"/v1/predictions?zone=us-east-1%62&type=c4.large&probability=0.99", // escaped -> slow parse
		"/v1/predictions?zone=nowhere-1x&type=c4.large",                    // 404 on both paths
		"/v1/predictions?zone=us-east-1b&type=c4.large&probability=2",      // 400 on both paths
		"/v1/predictions?zone&zone=us-east-1b&type=c4.large",               // bare key: first zone is ""
		"/v1/predictions?zone=us-east-1b;x&type=c4.large&probability=0.99", // ';' segment is dropped
		"/v1/predictions?zone=us-east-1b;x&zone=us-east-1c&type=c4.large",  // ... so the next zone counts
		"/v1/combos",
	}
	for _, target := range targets {
		fastCode, _, fastBody := getBody(t, fast, target)
		slowCode, _, slowBody := getBody(t, slow, target)
		if fastCode != slowCode {
			t.Errorf("%s: fast status %d, marshal status %d", target, fastCode, slowCode)
		}
		if !bytes.Equal(fastBody, slowBody) {
			t.Errorf("%s: bodies differ:\nfast:    %s\nmarshal: %s", target, fastBody, slowBody)
		}
	}
}

func TestETagNotModified(t *testing.T) {
	srv := testServer(t)
	h := srv.Handler()
	target := "/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99"
	code, hdr, body := getBody(t, h, target)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	etag := hdr.Get("Etag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("missing or unquoted ETag %q", etag)
	}
	if len(body) == 0 || body[len(body)-1] != '\n' {
		t.Fatal("body must end with newline (json.Encoder compatibility)")
	}

	for _, match := range []string{etag, "*", `"zzz", ` + etag} {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		req.Header.Set("If-None-Match", match)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d, want 304", match, rec.Code)
		}
		if rec.Body.Len() != 0 {
			t.Errorf("If-None-Match %q: 304 carried a body", match)
		}
	}

	req := httptest.NewRequest(http.MethodGet, target, nil)
	req.Header.Set("If-None-Match", `"stale"`)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("stale If-None-Match: status %d, want 200", rec.Code)
	}

	// A refresh is a new epoch: the old ETag must stop matching.
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest(http.MethodGet, target, nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("post-refresh revalidation: status %d, want 200", rec.Code)
	}
	if rec.Header().Get("Etag") == etag {
		t.Error("refresh did not change the ETag")
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}

	tables, err := cl.Tables(testCombos, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(testCombos) {
		t.Fatalf("%d tables, want %d", len(tables), len(testCombos))
	}
	for i, tj := range tables {
		if tj.Zone != string(testCombos[i].Zone) || tj.InstanceType != string(testCombos[i].Type) {
			t.Errorf("table %d is %s/%s, want %s (request order must be preserved)",
				i, tj.Zone, tj.InstanceType, testCombos[i])
		}
		if tj.Probability != 0.95 {
			t.Errorf("table %d probability %v", i, tj.Probability)
		}
		if len(tj.Points) == 0 {
			t.Errorf("table %d empty", i)
		}
	}

	// The batch must carry the same epoch ETag and honour If-None-Match.
	h := srv.Handler()
	target := "/v1/tables?combos=us-east-1b/c4.large,us-east-1c/c4.large"
	code, hdr, _ := getBody(t, h, target)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	etag := hdr.Get("Etag")
	req := httptest.NewRequest(http.MethodGet, target, nil)
	req.Header.Set("If-None-Match", etag)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Errorf("batch If-None-Match: status %d, want 304", rec.Code)
	}
}

func TestBatchEndpointErrors(t *testing.T) {
	srv := testServer(t)
	h := srv.Handler()
	cases := []struct {
		target string
		want   int
	}{
		{"/v1/tables", http.StatusBadRequest},
		{"/v1/tables?combos=", http.StatusBadRequest},
		{"/v1/tables?combos=us-east-1b", http.StatusBadRequest}, // no slash
		{"/v1/tables?combos=us-east-1b/c4.large&probability=2", http.StatusBadRequest},
		{"/v1/tables?combos=us-east-1b/c4.large&probability=abc", http.StatusBadRequest},
		// All-or-nothing: one unknown combo fails the whole batch.
		{"/v1/tables?combos=us-east-1b/c4.large,nowhere-9z/c4.large", http.StatusNotFound},
		{"/v1/tables?combos=" + strings.Repeat("us-east-1b/c4.large,", maxBatchCombos) + "us-east-1b/c4.large",
			http.StatusBadRequest}, // over the batch cap
	}
	for _, tc := range cases {
		code, _, body := getBody(t, h, tc.target)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.target, code, tc.want, body)
		}
	}

	// Before any refresh there is no epoch: the batch endpoint must
	// answer 503.
	empty, err := New(Config{Source: history.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	code, _, _ := getBody(t, empty.Handler(), "/v1/tables?combos=a/b")
	if code != http.StatusServiceUnavailable {
		t.Errorf("empty server batch: status %d, want 503", code)
	}
}

// TestIncrementalRefreshEquivalence is the service-level half of the
// incremental invariant: after histories grow by a few ticks, a refresh
// that takes the incremental path serves responses byte-identical to a
// server that computed the same histories from scratch.
func TestIncrementalRefreshEquivalence(t *testing.T) {
	gen := pricegen.Generator{Seed: 31}
	st := history.NewStore()
	if err := gen.Populate(st, testCombos, t0, 9000); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Source: st, MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}

	// Grow every history by a handful of ticks, deterministically continuing
	// each combo's price process.
	const newTicks = 7
	for _, c := range testCombos {
		tail, err := gen.Continue(c, t0, 9000, newTicks)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range tail.Prices {
			st.Append(c, tail.TimeAt(i), v)
		}
	}

	// The next refresh must actually take the incremental path for the
	// installed predictors.
	old := srv.blobs.Load().predictor(comboKey(testCombos[0], 0.99))
	series, _ := st.Full(testCombos[0])
	want, err := (core.Params{Probability: 0.99, MaxHistory: 9000}).WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if srv.extendPredictor(old, want, series) == nil {
		t.Fatal("extendPredictor declined the incremental path")
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}

	// A from-scratch server over the identical grown store.
	fresh, err := New(Config{Source: st, MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Refresh(); err != nil {
		t.Fatal(err)
	}

	hInc, hFull := srv.Handler(), fresh.Handler()
	for _, c := range testCombos {
		for _, prob := range []float64{0.95, 0.99} {
			target := fmt.Sprintf("/v1/predictions?zone=%s&type=%s&probability=%v", c.Zone, c.Type, prob)
			codeI, _, bodyI := getBody(t, hInc, target)
			codeF, _, bodyF := getBody(t, hFull, target)
			if codeI != http.StatusOK || codeF != http.StatusOK {
				t.Fatalf("%s: status %d vs %d", target, codeI, codeF)
			}
			if !bytes.Equal(bodyI, bodyF) {
				t.Errorf("%s: incremental refresh served different bytes than full recompute:\nincremental: %s\nfull:        %s",
					target, bodyI, bodyF)
			}
		}
	}
}

// TestExtendPredictorDeclines pins the guard conditions under which the
// incremental path must fall back to a full recompute.
func TestExtendPredictorDeclines(t *testing.T) {
	srv := testServer(t)
	old := srv.blobs.Load().predictor(comboKey(testCombos[0], 0.99))
	series, _ := srv.cfg.Source.(*history.Store).Full(testCombos[0])
	want := old.Params()

	if srv.extendPredictor(nil, want, series) != nil {
		t.Error("nil predictor extended")
	}
	other, err := (core.Params{Probability: 0.5, MaxHistory: 9000}).WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if srv.extendPredictor(old, other, series) != nil {
		t.Error("parameter mismatch extended")
	}
	// A series on a different grid (shifted start) must be rejected.
	shifted := &history.Series{Start: series.Start.Add(time.Minute), Step: series.Step, Prices: series.Prices}
	if srv.extendPredictor(old, want, shifted) != nil {
		t.Error("grid-misaligned series extended")
	}
}

// TestRestoreInstallsBlobs ensures a snapshot restore re-arms the fast
// path: the restored server answers cached GETs from pre-encoded blobs with
// the same ETag epoch it served before the restart.
func TestRestoreInstallsBlobs(t *testing.T) {
	srv := testServer(t)
	target := "/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99"
	_, hdrBefore, bodyBefore := getBody(t, srv.Handler(), target)

	payload, err := srv.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(Config{Source: testStore(t), MaxHistory: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(payload); err != nil {
		t.Fatal(err)
	}
	if restored.blobs.Load() == nil {
		t.Fatal("restore did not install the blob store")
	}
	code, hdr, body := getBody(t, restored.Handler(), target)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !bytes.Equal(body, bodyBefore) {
		t.Error("restored server served different bytes")
	}
	if hdr.Get("Etag") != hdrBefore.Get("Etag") {
		t.Errorf("restored ETag %q != original %q", hdr.Get("Etag"), hdrBefore.Get("Etag"))
	}
}

// TestRawQueryValue pins the zero-allocation query scanner against the
// url.Values ground truth.
func TestRawQueryValue(t *testing.T) {
	cases := []struct {
		q, key, want string
		found        bool
	}{
		{"zone=a&type=b", "zone", "a", true},
		{"zone=a&type=b", "type", "b", true},
		{"zone=a&type=b", "probability", "", false},
		{"type=b&zone=", "zone", "", true},
		{"zone=a", "zon", "", false}, // prefix must not match
		{"zonex=a", "zone", "", false},
		{"azone=a", "zone", "", false},
		{"", "zone", "", false},
		{"zone", "zone", "", true}, // bare key: empty value, as url.ParseQuery reads it
		{"zone&zone=us-east-1b&type=b", "zone", "", true},
		{"zone=us-east-1b;x&type=b", "zone", "", false}, // ';' segments are dropped
		{"zone=us-east-1b;x&zone=us-east-1c", "zone", "us-east-1c", true},
		{"&&zone=a", "zone", "a", true},
		{"zone=a=b", "zone", "a=b", true},
		{"zone=a&zone=b", "zone", "a", true}, // first value wins
	}
	for _, tc := range cases {
		got, found := rawQueryValue(tc.q, tc.key)
		if got != tc.want || found != tc.found {
			t.Errorf("rawQueryValue(%q, %q) = (%q, %v), want (%q, %v)",
				tc.q, tc.key, got, found, tc.want, tc.found)
		}
	}
	if fastQuery("zone=us%2Deast") || fastQuery("a=b+c") {
		t.Error("escaped query accepted by fast path")
	}
	if !fastQuery("zone=us-east-1b&type=c4.large") {
		t.Error("plain query rejected by fast path")
	}
}

// FuzzQueryValue is the query-parsing differential: on every input
// parseReadQuery yields url.ParseQuery's first value for each key it
// reads, and on plain (fast-parseable) input rawQueryValue agrees with
// url.ParseQuery key by key.
func FuzzQueryValue(f *testing.F) {
	for _, seed := range []string{
		"zone=us-east-1b&type=c4.large&probability=0.99&duration=1h",
		"zone&zone=us-east-1b&type=c4.large",
		"zone=us-east-1b;x&zone=us-east-1c&type=c4.large",
		"zone=us-east-1%62&type=c4.large+x",
		"&&=&zone==&account=a;b&duration=1h&combos=a/b,c/d",
		"zone=%zz&zone=b&probability=",
	} {
		f.Add(seed)
	}
	keys := []string{"zone", "type", "probability", "duration", "account", "combos"}
	f.Fuzz(func(t *testing.T, q string) {
		vals, _ := url.ParseQuery(q)
		if fastQuery(q) {
			for _, key := range keys {
				got, found := rawQueryValue(q, key)
				if want := vals.Get(key); got != want || found != (len(vals[key]) > 0) {
					t.Errorf("rawQueryValue(%q, %q) = (%q, %v), url.ParseQuery gives %q (present %v)",
						q, key, got, found, want, len(vals[key]) > 0)
				}
			}
		}
		want := readQuery{
			zone:     vals.Get("zone"),
			typ:      vals.Get("type"),
			prob:     vals.Get("probability"),
			duration: vals.Get("duration"),
			account:  vals.Get("account"),
		}
		if want.prob == "" {
			want.prob = defaultProbKey
		}
		if got := parseReadQuery(q); got != want {
			t.Errorf("parseReadQuery(%q) = %+v, want %+v", q, got, want)
		}
	})
}

// TestEncodeFailureKeepsEpoch pins the install contract: an epoch that
// fails to encode never replaces the installed one. Over a good epoch, a
// table set carrying a NaN bid (which encoding/json rejects) is installed:
// the epoch sequence holds, cached reads keep answering the old bytes, and
// /healthz reports the failure.
func TestEncodeFailureKeepsEpoch(t *testing.T) {
	srv := testServer(t)
	h := srv.Handler()
	const target = "/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99"
	code, _, before := getBody(t, h, target)
	if code != http.StatusOK {
		t.Fatalf("baseline status %d", code)
	}
	good := srv.blobs.Load()
	seq := srv.CurrentEpoch().Seq()

	poisoned := make([]slot, len(good.entries))
	for i, e := range good.entries {
		poisoned[i].entry = e
		poisoned[i].table, _ = e.pred.Table()
	}
	i := good.index[comboKey(testCombos[0], 0.99)]
	table := &poisoned[i].table
	table.Points = append([]core.BidPoint{{Bid: math.NaN(), Duration: time.Hour}}, table.Points...)
	if err := srv.install(poisoned, time.Now().UTC(), "", nil, false); err == nil {
		t.Fatal("install accepted a table with a NaN bid")
	}

	if got := srv.CurrentEpoch().Seq(); got != seq {
		t.Errorf("epoch seq moved from %d to %d on a failed install", seq, got)
	}
	code, _, after := getBody(t, h, target)
	if code != http.StatusOK || !bytes.Equal(after, before) {
		t.Errorf("read after failed install = %d, identical bytes %v; want 200 and the old bytes",
			code, bytes.Equal(after, before))
	}
	if !srv.blobSnapshotEqual(testCombos[0], 0.99, bytes.TrimSuffix(before, newline)) {
		t.Error("installed blob differs from the last good epoch's")
	}
	if hb := getHealth(t, srv); !strings.Contains(hb.LastRefreshE, "NaN") {
		t.Errorf("healthz last_refresh_error = %q, want the encoding failure", hb.LastRefreshE)
	}
}
