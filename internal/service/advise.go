package service

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/drafts-go/drafts/internal/core"
)

// /v1/advise answers from the epoch's precomputed surfaces: a query
// substring parse, one map lookup, an O(1) grid snap (or an O(log n)
// refinement for off-grid durations), and a pooled-buffer write — no
// predictor scan, no deadline, no allocation. The bid-escalation scan the
// surfaces replaced survives only as a test oracle;
// TestAdviseSurfaceScanEquivalence holds the two byte-identical over
// randomized trials.

// quoteBuf is the pooled response-assembly buffer for the advise fast
// path. Quotes are ~150 bytes; after warm-up the pooled capacity sticks
// and a cached advise performs zero heap allocations.
type quoteBuf struct {
	b []byte
}

var quoteBufPool = sync.Pool{New: func() any { return &quoteBuf{} }}

// plainJSONSafe reports whether s encodes into a JSON string verbatim
// under encoding/json's rules: printable ASCII with nothing to escape
// (including the <, >, & that json.Encoder HTML-escapes). Anything else
// is rendered through encoding/json (writeQuoteJSON).
//
//drafts:nonalloc
func plainJSONSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest round-trip form, scientific notation outside [1e-6, 1e21), and
// no "e-0X" zero-padded exponents.
//
//drafts:nonalloc
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs > 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// handleAdvise answers the user question directly: the smallest bid that
// guarantees the requested duration, escalating past the published table
// span when necessary. The query is parsed once; a request that names no
// ?account= and resolves to a surface is answered straight away, and
// everything else — the deprecated ?account= alias and every error — is
// resolved by resolveAdvise against the same epoch.
//
//drafts:nonalloc
func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	et := s.blobs.Load()
	if et == nil {
		writeNoEpoch(w)
		return
	}
	q := parseReadQuery(r.URL.RawQuery)
	if surf, phys, d, ok := s.adviseSurface(w, et, q); ok {
		s.answerAdvise(w, et, surf, q.zone, phys, q.typ, d)
		return
	}
	s.resolveAdvise(w, et, q)
}

// adviseSurface resolves a well-formed request without ?account= to its
// surface, the physical zone it names (an account-mapped tenant asks in
// its obfuscated namespace), and the duration. Any miss returns false and
// leaves the answer to resolveAdvise.
//
//drafts:nonalloc
func (s *Server) adviseSurface(w http.ResponseWriter, et *encodedTables, q readQuery) (*core.AdviseSurface, string, time.Duration, bool) {
	if q.account != "" || q.zone == "" || q.typ == "" || q.duration == "" {
		return nil, "", 0, false
	}
	phys, ok := s.physicalZone(tenantAccount(w), q.zone)
	if !ok {
		return nil, "", 0, false
	}
	surf, ok := et.lookupSurface(phys, q.typ, q.prob)
	if !ok {
		return nil, "", 0, false
	}
	d, err := time.ParseDuration(q.duration)
	if err != nil || d <= 0 {
		return nil, "", 0, false
	}
	return surf, phys, d, true
}

// resolveAdvise validates an advise request through resolveCombo and the
// duration checks — rendering their errors — and answers from the surface
// of the resolved combo, or 404.
func (s *Server) resolveAdvise(w http.ResponseWriter, et *encodedTables, q readQuery) {
	visible, combo, _, prob, ok := s.resolveCombo(w, q)
	if !ok {
		return
	}
	if q.duration == "" {
		writeErr(w, http.StatusBadRequest, codeInvalidArgument, "duration is required (e.g. 2h30m)")
		return
	}
	d, err := time.ParseDuration(q.duration)
	if err != nil || d <= 0 {
		writeErr(w, http.StatusBadRequest, codeInvalidArgument, "invalid duration %q", q.duration)
		return
	}
	surf, ok := et.lookupSurface(string(combo.Zone), string(combo.Type), probKey(prob))
	if !ok {
		writeErr(w, http.StatusNotFound, codeNotFound, "no predictor for %s at probability %v", combo, prob)
		return
	}
	s.answerAdvise(w, et, surf, string(visible), string(combo.Zone), string(combo.Type), d)
}

// answerAdvise applies the serve-stale policy and writes the quote for d
// under the client's visible zone, or the cannot-guarantee refusal, which
// names the physical combo.
//
//drafts:nonalloc
func (s *Server) answerAdvise(w http.ResponseWriter, et *encodedTables, surf *core.AdviseSurface, visible, phys, typ string, d time.Duration) {
	if !s.checkStaleness(w, et.asOf) {
		return
	}
	tr := traceOf(w)
	sp := tr.StartSpan("surface.lookup")
	quote, ok := surf.Lookup(d)
	sp.End()
	if !ok {
		s.writeAdviseRefusal(w, d, phys, typ, surf)
		return
	}
	wsp := tr.StartSpan("surface.write")
	if plainJSONSafe(visible) && plainJSONSafe(typ) {
		s.writeAdviseQuote(w, visible, typ, quote)
	} else {
		writeQuoteJSON(w, visible, typ, quote)
	}
	wsp.End()
}

// writeAdviseQuote renders the QuoteJSON success body from a pooled
// buffer, byte-identical to writeJSON(w, 200, QuoteJSON{...}) for the
// plain-JSON-safe strings the fast path admits.
//
//drafts:nonalloc
func (s *Server) writeAdviseQuote(w http.ResponseWriter, zone, typ string, q core.Quote) {
	bb := quoteBufPool.Get().(*quoteBuf)
	b := bb.b[:0]
	b = append(b, `{"zone":"`...)
	b = append(b, zone...)
	b = append(b, `","instance_type":"`...)
	b = append(b, typ...)
	b = append(b, `","probability":`...)
	b = appendJSONFloat(b, q.Probability)
	b = append(b, `,"bid_usd_per_hour":`...)
	b = appendJSONFloat(b, q.Bid)
	b = append(b, `,"guaranteed_duration_seconds":`...)
	b = appendJSONFloat(b, q.Duration.Seconds())
	b = append(b, '}', '\n')
	h := w.Header()
	h["Content-Type"] = jsonCTHeader
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	bb.b = b
	quoteBufPool.Put(bb)
}

// writeQuoteJSON renders a quote whose names need JSON escaping through
// encoding/json — the cold sibling of writeAdviseQuote.
func writeQuoteJSON(w http.ResponseWriter, zone, typ string, q core.Quote) {
	writeJSON(w, http.StatusOK, QuoteJSON{
		Zone:            zone,
		InstanceType:    typ,
		Probability:     q.Probability,
		Bid:             q.Bid,
		DurationSeconds: q.Duration.Seconds(),
	})
}

// writeAdviseRefusal renders the cannot-guarantee refusal for a surface
// miss. Kept off the annotated path: refusals are cold, and the variadic
// error rendering may allocate.
func (s *Server) writeAdviseRefusal(w http.ResponseWriter, d time.Duration, zone, typ string, surf *core.AdviseSurface) {
	writeErr(w, http.StatusConflict, codeNotFound, "cannot guarantee %v on %s: %v",
		d, surfaceComboString(zone, typ), surf.CannotGuarantee(d))
}
