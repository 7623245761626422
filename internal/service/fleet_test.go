package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/telemetry"
)

func postFleet(t *testing.T, h http.Handler, body string) (int, FleetResponse, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/fleet", bytes.NewReader([]byte(body)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp FleetResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding fleet response: %v (%s)", err, rec.Body.Bytes())
		}
	}
	return rec.Code, resp, rec.Body.Bytes()
}

// TestFleetMatchesAdvise is the golden-by-construction ranking test: the
// fleet response must equal per-combo /v1/advise answers collected
// client-side, sorted by (bid, zone, type). If advise is right — and the
// surface/scan equivalence test says it is — fleet is right exactly when
// this holds.
func TestFleetMatchesAdvise(t *testing.T) {
	srv := testServer(t)
	h := srv.Handler()

	const dur = "1h"
	type want struct {
		zone, typ string
		bid       float64
	}
	var expect []want
	for _, c := range testCombos {
		target := fmt.Sprintf("/v1/advise?zone=%s&type=%s&probability=0.99&duration=%s", c.Zone, c.Type, dur)
		code, _, body := getBody(t, h, target)
		if code != http.StatusOK {
			continue // non-compliant combo: must be absent from fleet
		}
		var q QuoteJSON
		if err := json.Unmarshal(body, &q); err != nil {
			t.Fatal(err)
		}
		expect = append(expect, want{zone: string(c.Zone), typ: string(c.Type), bid: q.Bid})
	}
	if len(expect) == 0 {
		t.Fatal("no combo can guarantee 1h; fixture is degenerate")
	}
	sort.Slice(expect, func(i, j int) bool {
		if expect[i].bid != expect[j].bid {
			return expect[i].bid < expect[j].bid
		}
		if expect[i].zone != expect[j].zone {
			return expect[i].zone < expect[j].zone
		}
		return expect[i].typ < expect[j].typ
	})

	code, resp, body := postFleet(t, h, `{"duration":"1h","probability":0.99,"count":100}`)
	if code != http.StatusOK {
		t.Fatalf("fleet status %d: %s", code, body)
	}
	if resp.TotalCompliant != len(expect) {
		t.Fatalf("total_compliant %d, want %d", resp.TotalCompliant, len(expect))
	}
	if len(resp.Results) != len(expect) {
		t.Fatalf("%d results, want %d", len(resp.Results), len(expect))
	}
	for i, r := range resp.Results {
		w := expect[i]
		if r.Zone != w.zone || r.InstanceType != w.typ || r.Bid != w.bid {
			t.Errorf("rank %d: got %s/%s @ %v, want %s/%s @ %v",
				i, r.Zone, r.InstanceType, r.Bid, w.zone, w.typ, w.bid)
		}
	}
	if resp.NextCursor != "" {
		t.Errorf("full result set carried a next_cursor %q", resp.NextCursor)
	}
	if resp.Probability != 0.99 || resp.DurationSeconds != 3600 {
		t.Errorf("echoed parameters: p=%v dur=%v", resp.Probability, resp.DurationSeconds)
	}
}

// TestFleetPagination walks the result set one row at a time and asserts
// the pages concatenate to exactly the one-shot ranking — no duplicates,
// no gaps, stable order — and that every page reports the same
// TotalCompliant.
func TestFleetPagination(t *testing.T) {
	srv := testServer(t)
	h := srv.Handler()

	code, all, body := postFleet(t, h, `{"duration":"30m","probability":0.95,"count":100}`)
	if code != http.StatusOK {
		t.Fatalf("fleet status %d: %s", code, body)
	}
	if len(all.Results) < 2 {
		t.Fatalf("need >=2 compliant combos to exercise pagination, have %d", len(all.Results))
	}

	var walked []FleetQuote
	cursor := ""
	pages := 0
	for {
		reqBody := fmt.Sprintf(`{"duration":"30m","probability":0.95,"count":1,"cursor":%q}`, cursor)
		code, page, raw := postFleet(t, h, reqBody)
		if code != http.StatusOK {
			t.Fatalf("page %d status %d: %s", pages, code, raw)
		}
		if page.TotalCompliant != all.TotalCompliant {
			t.Fatalf("page %d total_compliant %d, want %d", pages, page.TotalCompliant, all.TotalCompliant)
		}
		if len(page.Results) > 1 {
			t.Fatalf("page %d carried %d results, want <=1", pages, len(page.Results))
		}
		walked = append(walked, page.Results...)
		pages++
		if pages > len(all.Results)+2 {
			t.Fatal("pagination did not terminate")
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if !reflect.DeepEqual(walked, all.Results) {
		t.Fatalf("paged walk diverged from one-shot ranking:\nwalk: %+v\nall:  %+v", walked, all.Results)
	}
}

// TestFleetConstraints pins the zone/type filter semantics: exact match,
// '*'-terminated prefix, and the empty-list wildcard.
func TestFleetConstraints(t *testing.T) {
	srv := testServer(t)
	h := srv.Handler()
	cases := []struct {
		name      string
		body      string
		wantZones map[string]bool // allowed zones in results; nil = any
		wantTypes map[string]bool
		wantEmpty bool
	}{
		{
			name:      "zone prefix",
			body:      `{"duration":"30m","probability":0.99,"zones":["us-east-1*"],"count":100}`,
			wantZones: map[string]bool{"us-east-1b": true, "us-east-1c": true},
		},
		{
			name:      "type exact",
			body:      `{"duration":"30m","probability":0.99,"types":["c4.large"],"count":100}`,
			wantTypes: map[string]bool{"c4.large": true},
		},
		{
			name:      "type prefix",
			body:      `{"duration":"30m","probability":0.99,"types":["c3.*"],"count":100}`,
			wantTypes: map[string]bool{"c3.2xlarge": true},
		},
		{
			name:      "combined",
			body:      `{"duration":"30m","probability":0.99,"zones":["us-west-1a"],"types":["c3.*"],"count":100}`,
			wantZones: map[string]bool{"us-west-1a": true},
			wantTypes: map[string]bool{"c3.2xlarge": true},
		},
		{
			name:      "no match",
			body:      `{"duration":"30m","probability":0.99,"zones":["eu-central-1a"],"count":100}`,
			wantEmpty: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, resp, raw := postFleet(t, h, tc.body)
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, raw)
			}
			if tc.wantEmpty {
				if len(resp.Results) != 0 || resp.TotalCompliant != 0 {
					t.Fatalf("want empty, got %d results (total %d)", len(resp.Results), resp.TotalCompliant)
				}
				return
			}
			if len(resp.Results) == 0 {
				t.Fatal("filter matched nothing; fixture is degenerate")
			}
			for _, r := range resp.Results {
				if tc.wantZones != nil && !tc.wantZones[r.Zone] {
					t.Errorf("zone %s escaped the filter", r.Zone)
				}
				if tc.wantTypes != nil && !tc.wantTypes[r.InstanceType] {
					t.Errorf("type %s escaped the filter", r.InstanceType)
				}
			}
		})
	}
}

// TestFleetErrors pins the endpoint's error contract.
func TestFleetErrors(t *testing.T) {
	srv := testServer(t)
	h := srv.Handler()
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"not json", `{{{`, http.StatusBadRequest},
		{"missing duration", `{}`, http.StatusBadRequest},
		{"bad duration", `{"duration":"bogus"}`, http.StatusBadRequest},
		{"negative duration", `{"duration":"-2h"}`, http.StatusBadRequest},
		{"probability too high", `{"duration":"1h","probability":1.5}`, http.StatusBadRequest},
		{"probability negative", `{"duration":"1h","probability":-0.5}`, http.StatusBadRequest},
		{"negative count", `{"duration":"1h","count":-3}`, http.StatusBadRequest},
		{"garbage cursor", `{"duration":"1h","cursor":"!!!not-base64!!!"}`, http.StatusBadRequest},
		{"forged cursor", `{"duration":"1h","cursor":"aGVsbG8"}`, http.StatusBadRequest},
		{"unsupported probability level", `{"duration":"1h","probability":0.5}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, raw := postFleet(t, h, tc.body)
			if code != tc.want {
				t.Errorf("status %d, want %d (body %s)", code, tc.want, raw)
			}
		})
	}

	// Before any refresh there is no epoch, hence no surfaces: 503.
	empty, err := New(Config{Source: history.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	code, _, _ := postFleet(t, empty.Handler(), `{"duration":"1h"}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("empty server: status %d, want 503", code)
	}
}

// TestFleetClient exercises the typed client end to end over HTTP,
// including cursor-driven pagination and the default probability.
func TestFleetClient(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}

	all, err := cl.Fleet(FleetRequest{Duration: "30m", Probability: 0.99, Count: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Results) < 2 {
		t.Fatalf("need >=2 compliant combos, have %d", len(all.Results))
	}
	if all.Probability != 0.99 {
		t.Errorf("probability %v", all.Probability)
	}

	// Defaulted probability (omitted) must be 0.99.
	defaulted, err := cl.Fleet(FleetRequest{Duration: "30m", Count: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(defaulted.Results, all.Results) {
		t.Error("omitted probability did not default to 0.99")
	}

	// Page with count=1 and reassemble.
	var walked []FleetQuote
	req := FleetRequest{Duration: "30m", Probability: 0.99, Count: 1}
	for {
		page, err := cl.Fleet(req)
		if err != nil {
			t.Fatal(err)
		}
		walked = append(walked, page.Results...)
		if page.NextCursor == "" {
			break
		}
		req.Cursor = page.NextCursor
	}
	if !reflect.DeepEqual(walked, all.Results) {
		t.Fatalf("client pagination diverged:\nwalk: %+v\nall:  %+v", walked, all.Results)
	}

	// A typed API error surfaces with its code.
	_, err = cl.Fleet(FleetRequest{Duration: "bogus"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Code != codeInvalidArgument {
		t.Fatalf("want typed invalid_argument error, got %v", err)
	}
}

// tiedFleetServer is a replica serving a synthetic p=0.95 epoch over n
// combos spread across the catalog's zones. Every surface escalates over
// four bids 10 ticks apart from a base drawn out of four values, so its
// quotes fall on seven ticks and many combos in different zones tie on
// the bid; guarantees drawn from 2-30 five-minute steps leave some combos
// unable to carry 1h or 2h.
func tiedFleetServer(t testing.TB, n int) *Server {
	t.Helper()
	all := spot.Combos()
	rng := rand.New(rand.NewSource(int64(n)))
	blobs := make(map[BlobKey][]byte, n)
	surfaces := make(map[BlobKey][]byte, n)
	for i := 0; i < n; i++ {
		c := all[i*len(all)/n]
		base := uint32(500 + 10*rng.Intn(4))
		bids := []uint32{base, base + 10, base + 20, base + 30}
		guar := make([]uint32, len(bids))
		for j := range guar {
			guar[j] = uint32(2 + rng.Intn(29))
		}
		surf, err := core.NewAdviseSurface(0.95, 5*time.Minute, bids, guar)
		if err != nil {
			t.Fatal(err)
		}
		k := BlobKey{Zone: string(c.Zone), Type: string(c.Type), Prob: "0.95"}
		blobs[k] = []byte(`{}`)
		surfaces[k] = encodeSurface(surf)
	}
	ep, err := NewEpochFull(1, t0, []byte(`[]`), blobs, surfaces)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewReplica(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.InstallEpoch(ep); err != nil {
		t.Fatal(err)
	}
	return srv
}

// sortFleet is the reference ranking: every compliant row that passes
// the filters collected, all of them sorted by (bid tick, zone, type), and
// the page sliced after the cursor. handleFleet must answer exactly this
// while keeping only the page's rows. It also returns the surface lookups
// it made, one per row passing the filters. req must be a valid request.
func sortFleet(t *testing.T, et *encodedTables, req FleetRequest) (FleetResponse, int) {
	t.Helper()
	d, err := time.ParseDuration(req.Duration)
	if err != nil {
		t.Fatal(err)
	}
	prob := req.Probability
	if prob == 0 {
		prob = 0.99
	}
	count := req.Count
	if count == 0 {
		count = defaultFleetCount
	}
	count = min(count, maxFleetCount)
	after, hasAfter, err := decodeFleetCursor(req.Cursor)
	if err != nil {
		t.Fatal(err)
	}
	type candidate struct {
		cur   fleetCursor
		quote core.Quote
	}
	less := func(a, b fleetCursor) bool {
		if a.tick != b.tick {
			return a.tick < b.tick
		}
		if a.zone != b.zone {
			return a.zone < b.zone
		}
		return a.typ < b.typ
	}
	var cands []candidate
	lookups := 0
	for _, e := range et.fleetAt(probKey(prob)) {
		if !fleetMatch(req.Zones, e.key.Zone) || !fleetMatch(req.Types, e.key.Type) {
			continue
		}
		lookups++
		q, ok := e.surf.Lookup(d)
		if !ok {
			continue
		}
		cands = append(cands, candidate{
			cur:   fleetCursor{tick: spot.Ticks(q.Bid), zone: e.key.Zone, typ: e.key.Type},
			quote: q,
		})
	}
	sort.Slice(cands, func(i, j int) bool { return less(cands[i].cur, cands[j].cur) })
	start := 0
	if hasAfter {
		start = sort.Search(len(cands), func(i int) bool { return less(after, cands[i].cur) })
	}
	page := cands[start:]
	resp := FleetResponse{
		DurationSeconds: d.Seconds(),
		Probability:     prob,
		AsOf:            et.asOf,
		TotalCompliant:  len(cands),
		Results:         []FleetQuote{},
	}
	if len(page) > count {
		page = page[:count]
		resp.NextCursor = encodeFleetCursor(page[len(page)-1].cur)
	}
	for _, c := range page {
		resp.Results = append(resp.Results, FleetQuote{
			Zone:            c.cur.zone,
			InstanceType:    c.cur.typ,
			Bid:             c.quote.Bid,
			DurationSeconds: c.quote.Duration.Seconds(),
		})
	}
	return resp, lookups
}

// checkFleetOracle posts req and requires the handler's body to equal the
// reference ranking's, byte for byte, and the handler to raise lookups
// (drafts_predictor_surface_lookups_total) by the reference's lookups. It
// returns the handler's page.
func checkFleetOracle(t *testing.T, srv *Server, lookups *telemetry.Counter, req FleetRequest) FleetResponse {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	before := lookups.Value()
	code, got, body := postFleet(t, srv.Handler(), string(raw))
	if code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", raw, code, body)
	}
	handlerLookups := lookups.Value() - before
	want, wantLookups := sortFleet(t, srv.blobs.Load(), req)
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, want)
	if !bytes.Equal(body, rec.Body.Bytes()) {
		t.Fatalf("%s: handler and sort oracle disagree:\nhandler: %s\noracle:  %s", raw, body, rec.Body.Bytes())
	}
	if handlerLookups != uint64(wantLookups) {
		t.Fatalf("%s: handler made %d surface lookups, the sort oracle %d", raw, handlerLookups, wantLookups)
	}
	return got
}

// TestFleetRankingMatchesSortOracle holds the one-pass page selection to
// the sort-then-slice ranking on a catalog with bid ties across zones:
// full cursor walks at several page sizes and filters, and cursors that
// tie a row's tick or name a combo the epoch does not hold.
func TestFleetRankingMatchesSortOracle(t *testing.T) {
	reg := telemetry.NewRegistry()
	core.RegisterMetrics(reg)
	t.Cleanup(func() { core.RegisterMetrics(nil) })
	lookups := reg.Counter("drafts_predictor_surface_lookups_total", "")
	srv := tiedFleetServer(t, 40)

	full := checkFleetOracle(t, srv, lookups, FleetRequest{Duration: "1h", Probability: 0.95, Count: 100})
	ties := 0
	for i := 1; i < len(full.Results); i++ {
		if a, b := full.Results[i-1], full.Results[i]; a.Bid == b.Bid && a.Zone != b.Zone {
			ties++
		}
	}
	if full.TotalCompliant < 24 || ties == 0 {
		t.Fatalf("fixture too weak: %d compliant, %d cross-zone bid ties", full.TotalCompliant, ties)
	}

	filters := []struct{ zones, types []string }{
		{},
		{zones: []string{"us-east-1*"}},
		{types: []string{"c4.*", "m4.large"}},
		{zones: []string{"us-west-2a", "us-east-1*"}, types: []string{"m*"}},
	}
	for _, dur := range []string{"30m", "1h", "2h"} {
		for _, f := range filters {
			for _, count := range []int{1, 2, 10, 100} {
				req := FleetRequest{Duration: dur, Probability: 0.95, Zones: f.zones, Types: f.types, Count: count}
				for pages := 0; ; pages++ {
					page := checkFleetOracle(t, srv, lookups, req)
					if page.NextCursor == "" {
						break
					}
					if pages > full.TotalCompliant {
						t.Fatalf("%+v: cursor walk did not end", req)
					}
					req.Cursor = page.NextCursor
				}
			}
		}
	}

	// Cursors at every row's tick: on the row itself, on absent combos
	// just after it, before every zone and after every zone, and at a tick
	// no surface quotes.
	for _, r := range full.Results {
		tick := spot.Ticks(r.Bid)
		for _, c := range []fleetCursor{
			{tick: tick, zone: r.Zone, typ: r.InstanceType},
			{tick: tick, zone: r.Zone, typ: r.InstanceType + "0"},
			{tick: tick, zone: r.Zone + "0", typ: "a"},
			{tick: tick, zone: "a", typ: "a"},
			{tick: tick, zone: "zz", typ: "a"},
			{tick: tick + 5, zone: r.Zone, typ: r.InstanceType},
		} {
			for _, count := range []int{1, 2} {
				checkFleetOracle(t, srv, lookups, FleetRequest{Duration: "1h", Probability: 0.95, Count: count, Cursor: encodeFleetCursor(c)})
			}
		}
	}
}

// FuzzFleetPage checks fleetTop against sorting every compliant row and
// slicing the page after the cursor. Each input byte is one row in scan
// order: bytes from 0xf0 up are non-compliant, the rest quote tick b%8,
// so ties are the rule.
func FuzzFleetPage(f *testing.F) {
	f.Add([]byte{3, 1, 0xf0, 1, 2, 9, 1, 0, 7, 3}, uint8(1), uint8(3), uint8(2), true)
	f.Add([]byte{0, 0, 0, 0}, uint8(0), uint8(0), uint8(1), false)
	f.Fuzz(func(t *testing.T, rows []byte, fromTick, fromIdx, count uint8, paged bool) {
		k := 1 + int(count)%maxFleetCount
		top := fleetTop{k: k + 1}
		if paged {
			top.from = fleetPos{tick: int(fromTick % 9), idx: int(fromIdx)}
		}
		var all []fleetPos
		for i, b := range rows {
			if b >= 0xf0 {
				continue
			}
			top.offer(int(b%8), i, core.Quote{Bid: float64(i)})
			all = append(all, fleetPos{tick: int(b % 8), idx: i})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].tick != all[j].tick {
				return all[i].tick < all[j].tick
			}
			return all[i].idx < all[j].idx
		})
		start := 0
		if paged {
			start = sort.Search(len(all), func(i int) bool {
				p := all[i]
				return p.tick > top.from.tick || p.tick == top.from.tick && p.idx >= top.from.idx
			})
		}
		want := all[start:]
		if top.total != len(all) {
			t.Fatalf("total %d, want %d", top.total, len(all))
		}
		if more := top.n > k; more != (len(want) > k) {
			t.Fatalf("more pages %v, want %v", more, len(want) > k)
		}
		want = want[:min(len(want), k)]
		got := top.rows[:min(top.n, k)]
		if len(got) != len(want) {
			t.Fatalf("page holds %d rows, want %d", len(got), len(want))
		}
		for i, r := range got {
			if r.fleetPos != want[i] || r.quote.Bid != float64(r.idx) {
				t.Fatalf("row %d: %+v, want %+v", i, r, want[i])
			}
		}
	})
}

// TestFleetAllocsFlatInCatalog pins that a catalog-wide fleet page costs
// the same allocations at 12 combos as at 240, in count and in bytes: the
// handler keeps the page, not a row per combo.
func TestFleetAllocsFlatInCatalog(t *testing.T) {
	const body = `{"duration":"30m","probability":0.95,"count":10}`
	perRequest := func(n int) (allocs, bytesPer float64) {
		h := tiedFleetServer(t, n).Handler()
		var rd bytes.Reader
		req := httptest.NewRequest(http.MethodPost, "/v1/fleet", &rd)
		rec := httptest.NewRecorder()
		serve := func() {
			rd.Reset([]byte(body))
			rec.Body.Reset()
			h.ServeHTTP(rec, req)
		}
		serve()
		var page FleetResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil || page.NextCursor == "" {
			t.Fatalf("%d combos: want a full page with a next cursor, got %v: %s", n, err, rec.Body.Bytes())
		}
		allocs = testing.AllocsPerRun(200, serve)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 200
		for i := 0; i < runs; i++ {
			serve()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := perRequest(12)
	largeAllocs, largeBytes := perRequest(240)
	t.Logf("12 combos: %.0f allocs, %.0f B; 240 combos: %.0f allocs, %.0f B", smallAllocs, smallBytes, largeAllocs, largeBytes)
	if largeAllocs > smallAllocs {
		t.Errorf("allocs per fleet page grow with the catalog: %.0f at 12 combos, %.0f at 240", smallAllocs, largeAllocs)
	}
	// One 64-byte row per combo, as a sort over every compliant combo
	// keeps, would add 14 KB here.
	if largeBytes > smallBytes+512 {
		t.Errorf("bytes per fleet page grow with the catalog: %.0f at 12 combos, %.0f at 240", smallBytes, largeBytes)
	}
}
