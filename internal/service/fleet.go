package service

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/spot"
)

// POST /v1/fleet is the catalog-wide advise query: given a duration and
// probability, rank every compliant (zone, instance type) combo by the
// minimal bid that carries the guarantee — the cross-combo argmin over the
// precomputed advise surfaces. It answers the fleet-composition question
// ("what is the cheapest capacity anywhere that survives D hours at
// probability p?") that per-combo /v1/advise cannot, in one batched,
// paginated request. Any surface-bearing node — writer or replica —
// answers identically for the same epoch.

const (
	// defaultFleetCount is the page size when the request omits count.
	defaultFleetCount = 10
	// maxFleetCount caps one page; deeper result sets paginate.
	maxFleetCount = 100
	// maxFleetBody bounds the request body read.
	maxFleetBody = 1 << 20
)

// FleetRequest is the POST /v1/fleet body. Zones and Types filter the
// catalog: an entry matches when it equals a pattern exactly or, for
// patterns ending in '*', carries the prefix before it ("c4.*"). Empty
// lists match everything. Cursor resumes a prior response's pagination.
type FleetRequest struct {
	Duration    string   `json:"duration"`
	Probability float64  `json:"probability,omitempty"`
	Zones       []string `json:"zones,omitempty"`
	Types       []string `json:"types,omitempty"`
	Count       int      `json:"count,omitempty"`
	Cursor      string   `json:"cursor,omitempty"`
}

// FleetQuote is one ranked fleet result: the combo and the minimal bid
// guaranteeing the requested duration there, with the (at least as long)
// guaranteed duration at that bid.
type FleetQuote struct {
	Zone            string  `json:"zone"`
	InstanceType    string  `json:"instance_type"`
	Bid             float64 `json:"bid_usd_per_hour"`
	DurationSeconds float64 `json:"guaranteed_duration_seconds"`
}

// FleetResponse is the POST /v1/fleet response: one page of compliant
// combos, cheapest first (ties broken by zone then type, so pagination is
// total and stable within an epoch). TotalCompliant counts every combo
// that can carry the guarantee under the request's filters, across all
// pages; NextCursor is set when more pages follow.
type FleetResponse struct {
	DurationSeconds float64      `json:"duration_seconds"`
	Probability     float64      `json:"probability"`
	AsOf            time.Time    `json:"as_of"`
	TotalCompliant  int          `json:"total_compliant"`
	Results         []FleetQuote `json:"results"`
	NextCursor      string       `json:"next_cursor,omitempty"`
}

// fleetCursor is the keyset pagination position: pages resume strictly
// after this (bid tick, zone, type) tuple in ranking order, so a combo
// appearing or vanishing between requests shifts neighbors by at most
// itself instead of sliding the whole offset.
type fleetCursor struct {
	tick int
	zone string
	typ  string
}

func (c fleetCursor) less(o fleetCursor) bool {
	if c.tick != o.tick {
		return c.tick < o.tick
	}
	if c.zone != o.zone {
		return c.zone < o.zone
	}
	return c.typ < o.typ
}

const fleetCursorPrefix = "1:"

func encodeFleetCursor(c fleetCursor) string {
	raw := fleetCursorPrefix + strconv.Itoa(c.tick) + ":" + c.zone + "/" + c.typ
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

func decodeFleetCursor(s string) (fleetCursor, bool, error) {
	if s == "" {
		return fleetCursor{}, false, nil
	}
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return fleetCursor{}, false, fmt.Errorf("not base64url")
	}
	rest, ok := strings.CutPrefix(string(raw), fleetCursorPrefix)
	if !ok {
		return fleetCursor{}, false, fmt.Errorf("unknown cursor version")
	}
	tickStr, comboStr, ok := strings.Cut(rest, ":")
	if !ok {
		return fleetCursor{}, false, fmt.Errorf("malformed cursor")
	}
	tick, err := strconv.Atoi(tickStr)
	if err != nil || tick < 0 {
		return fleetCursor{}, false, fmt.Errorf("malformed cursor tick")
	}
	zone, typ, ok := strings.Cut(comboStr, "/")
	if !ok || zone == "" || typ == "" {
		return fleetCursor{}, false, fmt.Errorf("malformed cursor combo")
	}
	return fleetCursor{tick: tick, zone: zone, typ: typ}, true, nil
}

// fleetMatch reports whether v satisfies the pattern list: empty matches
// all; otherwise exact equality or a '*'-terminated prefix pattern.
func fleetMatch(patterns []string, v string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, p := range patterns {
		if strings.HasSuffix(p, "*") {
			if strings.HasPrefix(v, p[:len(p)-1]) {
				return true
			}
		} else if p == v {
			return true
		}
	}
	return false
}

// fleetCandidate is one compliant combo during ranking.
type fleetCandidate struct {
	cur   fleetCursor
	quote core.Quote
}

// handleFleet serves POST /v1/fleet. The scan is cheap — one surface
// lookup per catalog combo, each one binary search — so every page
// recomputes the full ranking and resumes at the cursor; no per-client
// state is held.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	var req FleetRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxFleetBody)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidArgument, "invalid fleet request: %v", err)
		return
	}
	if req.Duration == "" {
		writeErr(w, http.StatusBadRequest, codeInvalidArgument, "duration is required (e.g. 12h)")
		return
	}
	d, err := time.ParseDuration(req.Duration)
	if err != nil || d <= 0 {
		writeErr(w, http.StatusBadRequest, codeInvalidArgument, "invalid duration %q", req.Duration)
		return
	}
	prob := req.Probability
	if prob == 0 {
		prob = 0.99
	}
	if !(prob > 0 && prob < 1) {
		writeErr(w, http.StatusBadRequest, codeInvalidArgument, "invalid probability %v", req.Probability)
		return
	}
	count := req.Count
	if count == 0 {
		count = defaultFleetCount
	}
	if count < 0 {
		writeErr(w, http.StatusBadRequest, codeInvalidArgument, "invalid count %d", req.Count)
		return
	}
	if count > maxFleetCount {
		count = maxFleetCount
	}
	after, hasAfter, err := decodeFleetCursor(req.Cursor)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidArgument, "invalid cursor: %v", err)
		return
	}
	et := s.blobs.Load()
	if et == nil {
		writeErr(w, http.StatusServiceUnavailable, codeStale, "no tables computed yet")
		return
	}
	if !s.checkStaleness(w, et.asOf) {
		return
	}
	entries := et.fleetAt(probKey(prob))
	if len(entries) == 0 {
		writeErr(w, http.StatusNotFound, codeNotFound, "no advise surfaces at probability %v", prob)
		return
	}

	cands := make([]fleetCandidate, 0, len(entries))
	for _, e := range entries {
		if !fleetMatch(req.Zones, e.key.Zone) || !fleetMatch(req.Types, e.key.Type) {
			continue
		}
		q, ok := e.surf.Lookup(d)
		if !ok {
			continue
		}
		cands = append(cands, fleetCandidate{
			cur:   fleetCursor{tick: spot.Ticks(q.Bid), zone: e.key.Zone, typ: e.key.Type},
			quote: q,
		})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].cur.less(cands[j].cur) })

	start := 0
	if hasAfter {
		start = sort.Search(len(cands), func(i int) bool { return after.less(cands[i].cur) })
	}
	page := cands[start:]
	next := ""
	if len(page) > count {
		page = page[:count]
		next = encodeFleetCursor(page[len(page)-1].cur)
	}
	resp := FleetResponse{
		DurationSeconds: d.Seconds(),
		Probability:     prob,
		AsOf:            et.asOf,
		TotalCompliant:  len(cands),
		Results:         make([]FleetQuote, 0, len(page)),
		NextCursor:      next,
	}
	for _, c := range page {
		resp.Results = append(resp.Results, FleetQuote{
			Zone:            c.cur.zone,
			InstanceType:    c.cur.typ,
			Bid:             c.quote.Bid,
			DurationSeconds: c.quote.Duration.Seconds(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
