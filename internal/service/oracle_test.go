package service

import (
	"net/http"
	"strconv"
	"time"

	"github.com/drafts-go/drafts/internal/spot"
)

// The renderers in this file are the service's original per-request read
// paths, kept as test oracles for the epoch-served handlers: they parse
// with net/url, resolve accounts with their own copy of the resolution
// rules, and marshal JSON from the installed epoch's core tables and
// predictors (running the bid-escalation scan for advise) on every
// request. The equivalence tests hold Handler byte-identical to
// marshalHandler over the same epoch.

// marshalHandler serves /v1/predictions, /v1/combos and /v1/advise through
// the oracles, behind the same middleware as Handler.
func (s *Server) marshalHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/combos", s.handleCombosMarshal)
	mux.HandleFunc("GET /v1/predictions", s.handlePredictionsMarshal)
	mux.HandleFunc("GET /v1/advise", s.handleAdviseScan)
	return s.wrap(mux)
}

// oracleEpoch loads the installed epoch, answering the cold-start refusal
// itself when there is none.
func (s *Server) oracleEpoch(w http.ResponseWriter) *encodedTables {
	et := s.blobs.Load()
	if et == nil {
		writeErr(w, http.StatusServiceUnavailable, codeStale, "no tables computed yet")
	}
	return et
}

// oracleResolveCombo parses and (when an account applies) deobfuscates
// the zone/type query parameters through url.Values, writing the error
// response itself.
func (s *Server) oracleResolveCombo(w http.ResponseWriter, r *http.Request) (visible spot.Zone, combo spot.Combo, prob float64, ok bool) {
	zone := r.URL.Query().Get("zone")
	ty := r.URL.Query().Get("type")
	probStr := r.URL.Query().Get("probability")
	if zone == "" || ty == "" {
		writeErr(w, http.StatusBadRequest, codeInvalidArgument, "zone and type are required")
		return
	}
	prob = 0.99
	if probStr != "" {
		var err error
		prob, err = strconv.ParseFloat(probStr, 64)
		if err != nil || !(prob > 0 && prob < 1) {
			writeErr(w, http.StatusBadRequest, codeInvalidArgument, "invalid probability %q", probStr)
			return
		}
	}
	visible = spot.Zone(zone)
	canonical := visible
	tn := tenantOf(w)
	account := r.URL.Query().Get("account")
	if account != "" && s.tenants != nil {
		if tn == nil || tn.Account != account {
			writeErr(w, http.StatusForbidden, codePermissionDenied,
				"account %q does not match the authenticated tenant", account)
			return
		}
		markAccountParamDeprecated(w)
	}
	if account == "" && tn != nil {
		account = tn.Account
	}
	if account != "" {
		m, found := s.cfg.AccountMappings[account]
		if !found {
			if tn != nil && account == tn.Account {
				return visible, spot.Combo{Zone: canonical, Type: spot.InstanceType(ty)}, prob, true
			}
			writeErr(w, http.StatusForbidden, codePermissionDenied, "no zone mapping configured for account %q", account)
			return
		}
		var err error
		canonical, err = m.Physical(visible)
		if err != nil {
			writeErr(w, http.StatusBadRequest, codeInvalidArgument, "account %q: %v", account, err)
			return
		}
	}
	return visible, spot.Combo{Zone: canonical, Type: spot.InstanceType(ty)}, prob, true
}

// handlePredictionsMarshal re-encodes the requested table from the epoch's
// core representation on every request.
func (s *Server) handlePredictionsMarshal(w http.ResponseWriter, r *http.Request) {
	et := s.oracleEpoch(w)
	if et == nil {
		return
	}
	visible, combo, prob, ok := s.oracleResolveCombo(w, r)
	if !ok {
		return
	}
	table, ok := et.bidTables[tableKey{combo: combo, prob: prob}]
	if !ok {
		writeErr(w, http.StatusNotFound, codeNotFound, "no table for %s at probability %v", combo, prob)
		return
	}
	if !s.checkStaleness(w, et.asOf) {
		return
	}
	// Answer under the client's own zone name.
	writeJSON(w, http.StatusOK, toJSON(spot.Combo{Zone: visible, Type: combo.Type}, table))
}

// handleCombosMarshal marshals the combo listing from the epoch's core
// tables, renamed into an account-mapped tenant's namespace.
func (s *Server) handleCombosMarshal(w http.ResponseWriter, _ *http.Request) {
	et := s.oracleEpoch(w)
	if et == nil {
		return
	}
	seen := make(map[spot.Combo]bool)
	for k := range et.bidTables {
		seen[k.combo] = true
	}
	if !s.checkStaleness(w, et.asOf) {
		return
	}
	var inv map[spot.Zone]spot.Zone
	if tn := tenantOf(w); tn != nil && tn.Account != "" {
		if m, found := s.cfg.AccountMappings[tn.Account]; found {
			inv = m.Inverse()
		}
	}
	writeJSON(w, http.StatusOK, sortedCombos(seen, inv))
}

// handleAdviseScan runs the predictor's bid-escalation scan per request.
func (s *Server) handleAdviseScan(w http.ResponseWriter, r *http.Request) {
	et := s.oracleEpoch(w)
	if et == nil {
		return
	}
	visible, combo, prob, ok := s.oracleResolveCombo(w, r)
	if !ok {
		return
	}
	durStr := r.URL.Query().Get("duration")
	if durStr == "" {
		writeErr(w, http.StatusBadRequest, codeInvalidArgument, "duration is required (e.g. 2h30m)")
		return
	}
	dur, err := time.ParseDuration(durStr)
	if err != nil || dur <= 0 {
		writeErr(w, http.StatusBadRequest, codeInvalidArgument, "invalid duration %q", durStr)
		return
	}
	pred := et.preds[tableKey{combo: combo, prob: prob}]
	if pred == nil {
		writeErr(w, http.StatusNotFound, codeNotFound, "no predictor for %s at probability %v", combo, prob)
		return
	}
	if !s.checkStaleness(w, et.asOf) {
		return
	}
	quote, err := pred.Advise(dur)
	if err != nil {
		writeErr(w, http.StatusConflict, codeNotFound, "cannot guarantee %v on %s: %v", dur, combo, err)
		return
	}
	writeJSON(w, http.StatusOK, QuoteJSON{
		Zone:            string(visible),
		InstanceType:    string(combo.Type),
		Probability:     prob,
		Bid:             quote.Bid,
		DurationSeconds: quote.Duration.Seconds(),
	})
}

// blobSnapshotEqual reports whether the installed epoch's blob for the
// combo/probability equals body.
func (s *Server) blobSnapshotEqual(c spot.Combo, prob float64, body []byte) bool {
	et := s.blobs.Load()
	if et == nil {
		return false
	}
	b, ok := et.tables[blobKey{zone: string(c.Zone), typ: string(c.Type), prob: probKey(prob)}]
	return ok && string(b) == string(body)
}
