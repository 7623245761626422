package service

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/obfuscate"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/trace"
)

// The serving hot path is allocation-free: every bid table is JSON-encoded
// once per refresh into an immutable encodedTables value that the handlers
// read through an atomic pointer. A cached GET is then a substring scan of
// the raw query, one index lookup, two preallocated header writes, and a
// single w.Write of the stored blob — no per-request marshalling, no
// url.Values, no []byte churn. The zero-allocation property is enforced by
// TestCachedGetZeroAllocs via testing.AllocsPerRun.
//
// The installed epoch is the server's only serving state: every read, the
// snapshot encoder, WAL compaction, and the next incremental refresh all
// reach it through Server.blobs.

// maxBatchCombos caps how many combos one /v1/tables request may ask for,
// bounding response size and validation work.
const maxBatchCombos = 512

// defaultProbKey is the canonical spelling of the default probability
// level, matching probKey(0.99).
const defaultProbKey = "0.99"

// Preallocated header values, assigned into the response header map
// directly so the hot path never allocates a fresh []string per request.
var (
	jsonCTHeader = []string{"application/json"}
	newline      = []byte("\n")
	openBracket  = []byte("[")
	closeBracket = []byte("]\n")
	comma        = []byte(",")
)

// encodedTables is one refresh epoch's immutable serving state. It is built
// once per refresh (or snapshot restore, or replicated install) and
// installed with an atomic pointer swap; handlers treat every byte as
// read-only.
type encodedTables struct {
	seq    uint64 // epoch sequence number, for replication ordering
	asOf   time.Time
	etag   string   // strong ETag derived from the refresh epoch, quoted
	etagH  []string // preallocated header value: []string{etag}
	combos []byte   // pre-encoded /v1/combos response body (no trailing newline)
	bytes  int      // total pre-encoded payload bytes, for the gauge

	// entries holds one entry per (combo, probability), sorted by key
	// (BlobKey.compare) once, when the epoch is built: every listing,
	// the snapshot, the checksum and the ship stream walk them in this
	// order. index addresses them by key; fleet lists each probability
	// spelling's entries for /v1/fleet.
	entries []entry
	index   map[BlobKey]int
	fleet   []fleetList

	// views holds the per-account variants of every table blob: the same
	// body with the zone field renamed to each visible name some account
	// mapping gives the physical zone. An account-mapped read — a tenant's,
	// or the deprecated ?account= alias — is then one mapping lookup plus
	// one views lookup, with no per-request rewrite and no allocation. Nil
	// unless the server has AccountMappings.
	views map[viewKey][]byte

	// combosViews holds the per-account /v1/combos listing with every
	// zone renamed to the account's visible name and the list re-sorted
	// in that namespace, so a mapped tenant's combo discovery round-trips
	// into its /v1/predictions and /v1/tables requests. Keyed by account;
	// accounts whose mapping is the identity over the served zones alias
	// the canonical body. Built alongside views.
	combosViews map[string][]byte
}

// entry is one (combo, probability), the unit every stage handles from
// the refresh that computes it to the replica that installs it: its
// pre-encoded table and its advise surface, both from the predictor's one
// guarantee walk (ladder).
type entry struct {
	key  BlobKey
	body []byte              // pre-encoded table (no trailing newline)
	surf *core.AdviseSurface // advise lookup structure
	enc  []byte              // canonical surface encoding (surface.go)

	// pred is the predictor the table and surface derive from: the input to
	// snapshots, WAL compaction, and the next incremental refresh.
	// Writer-only — nil on replica epochs, which are rebuilt from the wire —
	// and excluded from Checksum, since every byte a node serves is already
	// derived from it.
	pred *core.Predictor
}

// fleetList is one probability spelling's entries in (zone, type) order,
// the deterministic scan order /v1/fleet pages over.
type fleetList struct {
	prob string
	rows []*entry
}

// viewKey addresses one per-account view: the index of the entry whose
// table it renames, and the visible zone name the body answers under.
type viewKey struct {
	entry   int
	visible string
}

// probKey formats a probability level the way the service addresses blobs:
// the shortest round-trip representation, which matches how clients
// naturally spell query values ("0.99", "0.95").
func probKey(p float64) string { return strconv.FormatFloat(p, 'g', -1, 64) }

// epochETag derives the strong ETag for a refresh epoch: a hash of the
// installation time and table count. Tables only change when a refresh (or
// snapshot restore) installs a new epoch, so the epoch identifies the
// content; a restored snapshot carries its original asOf and therefore
// revalidates against the same ETag it served before the restart.
func epochETag(asOf time.Time, n int) string {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(asOf.UnixNano()))
	binary.LittleEndian.PutUint64(buf[8:], uint64(n))
	_, _ = h.Write(buf[:])
	return `"` + strconv.FormatUint(h.Sum64(), 16) + `"`
}

// sortedEpoch builds an epoch around its entries, writer's or replica's:
// sorted once by key, indexed, grouped per probability for /v1/fleet,
// and charged to the byte gauge. A key may appear once.
func sortedEpoch(entries []entry, asOf time.Time) (*encodedTables, error) {
	slices.SortFunc(entries, func(a, b entry) int { return a.key.compare(b.key) })
	et := &encodedTables{
		asOf:    asOf,
		etag:    epochETag(asOf, len(entries)),
		entries: entries,
		index:   make(map[BlobKey]int, len(entries)),
	}
	et.etagH = []string{et.etag}
	for i := range entries {
		e := &entries[i]
		if i > 0 && e.key == entries[i-1].key {
			return nil, fmt.Errorf("service: duplicate entry %s/%s/p=%s", e.key.Zone, e.key.Type, e.key.Prob)
		}
		et.index[e.key] = i
		et.bytes += len(e.body) + len(e.enc)
		j := 0
		for j < len(et.fleet) && et.fleet[j].prob != e.key.Prob {
			j++
		}
		if j == len(et.fleet) {
			et.fleet = append(et.fleet, fleetList{prob: e.key.Prob})
		}
		et.fleet[j].rows = append(et.fleet[j].rows, e)
	}
	return et, nil
}

// encodeTables builds one writer epoch from the built slots of a refresh or
// restore: every table and the combo listing pre-encoded, next to the
// advise surfaces and the predictors both derive from.
func encodeTables(slots []slot, asOf time.Time) (*encodedTables, error) {
	entries := make([]entry, 0, len(slots))
	for i := range slots {
		sl := &slots[i]
		if sl.surf == nil {
			continue
		}
		combo := spot.Combo{Zone: spot.Zone(sl.key.Zone), Type: spot.InstanceType(sl.key.Type)}
		body, err := json.Marshal(toJSON(combo, sl.table))
		if err != nil {
			return nil, fmt.Errorf("service: encoding table for %s/p=%s: %w", combo, sl.key.Prob, err)
		}
		e := sl.entry
		e.body = body
		entries = append(entries, e)
	}
	et, err := sortedEpoch(entries, asOf)
	if err != nil {
		return nil, err
	}
	if et.combos, err = json.Marshal(et.comboList(nil)); err != nil {
		return nil, fmt.Errorf("service: encoding combo list: %w", err)
	}
	et.bytes += len(et.combos)
	return et, nil
}

// comboList renders the epoch's combos as the /v1/combos listing, each zone
// renamed through rename (physical -> visible; nil renames nothing), sorted
// by (zone, type) in the renamed namespace. The entries are in that order
// already unless rename moves them.
func (et *encodedTables) comboList(rename map[spot.Zone]spot.Zone) []comboJSON {
	list := make([]comboJSON, 0, len(et.entries))
	for i := range et.entries {
		k := et.entries[i].key
		if i > 0 && k.Zone == et.entries[i-1].key.Zone && k.Type == et.entries[i-1].key.Type {
			continue
		}
		zone := spot.Zone(k.Zone)
		if vis, ok := rename[zone]; ok {
			zone = vis
		}
		list = append(list, comboJSON{Zone: string(zone), InstanceType: k.Type})
	}
	if rename != nil {
		slices.SortFunc(list, func(a, b comboJSON) int {
			return cmp.Or(strings.Compare(a.Zone, b.Zone), strings.Compare(a.InstanceType, b.InstanceType))
		})
	}
	return list
}

// zoneField renders the opening of a table body whose zone is z: Zone is
// TableJSON's first field, which is what lets buildViews rename it by
// prefix replacement without reparsing the JSON. The zone goes through
// encoding/json, so a renamed body is byte-identical to marshalling the
// table under the visible name.
func zoneField(z spot.Zone) []byte {
	name, _ := json.Marshal(string(z)) // strings always marshal
	return append([]byte(`{"zone":`), name...)
}

// buildViews precomputes every per-account variant of the epoch's tables
// and combo listing. For each renaming (visible, physical) pair of every
// account mapping, each table of the physical zone gets a body answering
// under the visible name — identity pairs are served by the canonical
// blobs — so an account-mapped read can be served exactly when
// resolveCombo can resolve it. Pairs shared by several accounts share one
// body; the blowup is bounded by the number of distinct visible names per
// physical zone.
func (et *encodedTables) buildViews(mappings map[string]obfuscate.Mapping) {
	views := make(map[viewKey][]byte, 4*len(et.entries))
	for _, m := range mappings {
		for vis, phys := range m {
			if vis == phys {
				continue
			}
			// Entries sort by zone first, so a zone's entries are one run.
			i, _ := slices.BinarySearchFunc(et.entries, string(phys), func(e entry, z string) int {
				return strings.Compare(e.key.Zone, z)
			})
			for ; i < len(et.entries) && et.entries[i].key.Zone == string(phys); i++ {
				vk := viewKey{entry: i, visible: string(vis)}
				if _, done := views[vk]; !done {
					views[vk] = bytes.Replace(et.entries[i].body, zoneField(phys), zoneField(vis), 1)
					et.bytes += len(views[vk])
				}
			}
		}
	}
	et.views = views
	et.buildCombosViews(mappings)
}

// buildCombosViews precomputes each mapped account's /v1/combos body: the
// served combo list with physical zones renamed to the account's visible
// names (the inverse of its visible->physical mapping) and re-sorted in
// the visible namespace. Accounts whose renaming is the identity over the
// served zones alias the canonical body.
func (et *encodedTables) buildCombosViews(mappings map[string]obfuscate.Mapping) {
	out := make(map[string][]byte, len(mappings))
	for account, m := range mappings {
		inv := m.Inverse()
		identity := true
		for i := range et.entries {
			zone := spot.Zone(et.entries[i].key.Zone)
			if vis, ok := inv[zone]; ok && vis != zone {
				identity = false
				break
			}
		}
		if identity {
			out[account] = et.combos
			continue
		}
		body, err := json.Marshal(et.comboList(inv))
		if err != nil {
			continue // unreachable for these types; canonical fallback
		}
		out[account] = body
		et.bytes += len(body)
	}
	et.combosViews = out
}

// install publishes a writer epoch built from a refresh or a snapshot
// restore; lastErr becomes the reported last refresh error. On an encoding
// failure the previous epoch keeps serving: the failure is recorded as the
// last refresh error and returned, and the serve-stale and breaker paths
// take it from there. Only a refresh times the blob.encode stage and
// drafts_blob_encode_seconds; its trace also gets a blob.views span.
func (s *Server) install(slots []slot, asOf time.Time, lastErr string, tr *trace.Trace, refresh bool) error {
	began := time.Now()
	var et *encodedTables
	encode := func() (err error) {
		et, err = encodeTables(slots, asOf)
		return err
	}
	var err error
	if refresh {
		err = s.stage(tr, stageEncode, encode)
	} else {
		err = encode()
	}
	if err != nil {
		s.setLastErr(err.Error())
		return err
	}
	if len(s.cfg.AccountMappings) > 0 {
		vsp := tr.StartSpan("blob.views")
		et.buildViews(s.cfg.AccountMappings)
		vsp.End()
	}
	s.mu.Lock()
	et.seq = s.epochSeq.Add(1)
	s.blobs.Store(et)
	s.lastErr = lastErr
	s.mu.Unlock()
	if refresh {
		s.metrics.encodeDuration.Observe(time.Since(began).Seconds())
	}
	s.published(et)
	return nil
}

// readQuery is one parsed per-combo read: the first value of each query
// key /v1/predictions and /v1/advise take, with the probability defaulted.
type readQuery struct {
	zone, typ, prob, duration, account string
}

// parseReadQuery parses a raw query once. Plain queries are read in one
// pass by substring, without allocating; escaped ones decode through
// url.ParseQuery. Both branches yield each key's first value exactly as
// url.Values.Get does — FuzzQueryValue holds them together.
//
//drafts:nonalloc
func parseReadQuery(raw string) readQuery {
	var q readQuery
	if fastQuery(raw) {
		var seen uint8 // one bit per field already holding its first value
		for raw != "" {
			key, val, rest, ok := nextQueryPair(raw)
			raw = rest
			var bit uint8
			var dst *string
			switch {
			case !ok:
				continue
			case key == "zone":
				bit, dst = 1, &q.zone
			case key == "type":
				bit, dst = 2, &q.typ
			case key == "probability":
				bit, dst = 4, &q.prob
			case key == "duration":
				bit, dst = 8, &q.duration
			case key == "account":
				bit, dst = 16, &q.account
			default:
				continue
			}
			if seen&bit == 0 {
				seen |= bit
				*dst = val
			}
		}
	} else {
		q = decodeReadQuery(raw)
	}
	if q.prob == "" {
		q.prob = defaultProbKey
	}
	return q
}

// decodeReadQuery is parseReadQuery's escaped-input branch. Malformed
// pairs are skipped, exactly as Request.URL.Query does.
func decodeReadQuery(raw string) readQuery {
	vals, _ := url.ParseQuery(raw)
	return readQuery{
		zone:     vals.Get("zone"),
		typ:      vals.Get("type"),
		prob:     vals.Get("probability"),
		duration: vals.Get("duration"),
		account:  vals.Get("account"),
	}
}

// fastQuery reports whether the raw query can be read by plain substring
// extraction: any percent-escape or '+' forces the url.ParseQuery branch.
//
//drafts:nonalloc
func fastQuery(q string) bool {
	for i := 0; i < len(q); i++ {
		if q[i] == '%' || q[i] == '+' {
			return false
		}
	}
	return true
}

// rawQueryValue returns key's first value in an unescaped raw query, as
// url.ParseQuery reads it, without allocating: the result is a substring
// of q.
//
//drafts:nonalloc
func rawQueryValue(q, key string) (val string, found bool) {
	for q != "" {
		k, v, rest, ok := nextQueryPair(q)
		if ok && k == key {
			return v, true
		}
		q = rest
	}
	return "", false
}

// nextQueryPair splits the first key=value segment off an unescaped raw
// query. Like url.ParseQuery it drops (ok false) empty segments and
// segments carrying ';', and reads a bare key ("zone&...") as having the
// empty value.
//
//drafts:nonalloc
func nextQueryPair(q string) (key, val, rest string, ok bool) {
	pair, rest, _ := strings.Cut(q, "&")
	if pair == "" || strings.IndexByte(pair, ';') >= 0 {
		return "", "", rest, false
	}
	key, val, _ = strings.Cut(pair, "=")
	return key, val, rest, true
}

// etagMatches implements the If-None-Match comparison against the epoch's
// strong ETag. Comma-separated candidate lists are honoured by substring
// search — every stored ETag is a quoted hash, so false positives cannot
// occur — and "*" matches any current representation.
//
//drafts:nonalloc
func etagMatches(header, etag string) bool {
	return header == "*" || strings.Contains(header, etag)
}

// writeBlob serves one pre-encoded body with ETag revalidation. The blob
// must not include its trailing newline; writeBlob appends it so responses
// stay byte-identical with json.Encoder output. The serve-stale policy
// applies first: a degraded epoch is marked with X-Drafts-Staleness, and
// one beyond MaxStaleness is refused — both off the fresh-epoch fast path,
// which stays allocation-free.
//
//drafts:nonalloc
func (s *Server) writeBlob(w http.ResponseWriter, r *http.Request, et *encodedTables, body []byte) {
	if !s.checkStaleness(w, et.asOf) {
		return
	}
	h := w.Header()
	h["Etag"] = et.etagH
	h["Content-Type"] = jsonCTHeader
	if m := r.Header.Get("If-None-Match"); m != "" && etagMatches(m, et.etag) {
		s.metrics.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	_, _ = w.Write(newline)
}

// writeNoEpoch is every read's answer before the first epoch installs.
func writeNoEpoch(w http.ResponseWriter) {
	writeErr(w, http.StatusServiceUnavailable, codeStale, "no tables computed yet")
}

// lookup resolves a (zone, type, probability-string) triple to the index
// of its entry, canonicalizing a non-canonical probability spelling
// ("0.990") on miss. Every per-combo read goes through it.
func (et *encodedTables) lookup(zone, typ, prob string) (int, bool) {
	k := BlobKey{Zone: zone, Type: typ, Prob: prob}
	i, ok := et.index[k]
	if !ok {
		if f, err := strconv.ParseFloat(prob, 64); err == nil {
			k.Prob = probKey(f)
			i, ok = et.index[k]
		}
	}
	return i, ok
}

// predictor returns the predictor behind k: nil without an epoch, without
// such an entry, or on a replica epoch.
func (et *encodedTables) predictor(k BlobKey) *core.Predictor {
	if et == nil {
		return nil
	}
	if i, ok := et.index[k]; ok {
		return et.entries[i].pred
	}
	return nil
}

// physicalZone translates the zone a request names into the canonical
// namespace of the account it is answered for: unchanged without an
// account or for an account with no mapping (resolveCombo's lenient rule),
// the mapping's image otherwise — false when the mapping lacks the zone.
func (s *Server) physicalZone(account, zone string) (string, bool) {
	if account == "" {
		return zone, true
	}
	m, found := s.cfg.AccountMappings[account]
	if !found {
		return zone, true
	}
	phys, found := m[spot.Zone(zone)]
	return string(phys), found
}

// lookupTable resolves a read to its pre-encoded body under the account it
// is answered for: the canonical blob when the zone needs no translation,
// otherwise the view answering under the visible zone name. A miss leaves
// the caller to render the authoritative error.
func (s *Server) lookupTable(et *encodedTables, account, zone, typ, prob string) ([]byte, bool) {
	phys, ok := s.physicalZone(account, zone)
	if !ok {
		return nil, false
	}
	i, ok := et.lookup(phys, typ, prob)
	if !ok {
		return nil, false
	}
	if phys == zone {
		return et.entries[i].body, true
	}
	b, ok := et.views[viewKey{entry: i, visible: zone}]
	return b, ok
}

// handlePredictions serves one bid table from the installed epoch. The
// query is parsed once; a request that names no ?account= goes straight
// to the epoch lookup — the canonical blob, or an authenticated tenant's
// precomputed zone view — and a hit is one map lookup and a single write,
// with no allocation. Everything else (the deprecated ?account= alias,
// and every error) is resolved by resolvePredictions against the same
// epoch.
//
//drafts:nonalloc
func (s *Server) handlePredictions(w http.ResponseWriter, r *http.Request) {
	et := s.blobs.Load()
	if et == nil {
		writeNoEpoch(w)
		return
	}
	q := parseReadQuery(r.URL.RawQuery)
	if q.account == "" && q.zone != "" && q.typ != "" {
		tr := traceOf(w)
		sp := tr.StartSpan("blob.lookup")
		body, ok := s.lookupTable(et, tenantAccount(w), q.zone, q.typ, q.prob)
		sp.End()
		if ok {
			wsp := tr.StartSpan("blob.write")
			s.writeBlob(w, r, et, body)
			wsp.End()
			return
		}
	}
	s.resolvePredictions(w, r, et, q)
}

// resolvePredictions validates a /v1/predictions request through
// resolveCombo — rendering its errors — and serves the epoch's table for
// the resolved account, or 404.
func (s *Server) resolvePredictions(w http.ResponseWriter, r *http.Request, et *encodedTables, q readQuery) {
	visible, combo, account, prob, ok := s.resolveCombo(w, q)
	if !ok {
		return
	}
	body, ok := s.lookupTable(et, account, string(visible), string(combo.Type), probKey(prob))
	if !ok {
		writeErr(w, http.StatusNotFound, codeNotFound, "no table for %s at probability %v", combo, prob)
		return
	}
	s.writeBlob(w, r, et, body)
}

// handleCombos serves the combo listing from the installed epoch. An
// account-mapped tenant receives its precomputed zone-view listing
// (combosViews) so discovery round-trips into the other read endpoints;
// either way the response is one map lookup and one write.
//
//drafts:nonalloc
func (s *Server) handleCombos(w http.ResponseWriter, r *http.Request) {
	et := s.blobs.Load()
	if et == nil {
		writeNoEpoch(w)
		return
	}
	body := et.combos
	if account := tenantAccount(w); account != "" {
		if vb, ok := et.combosViews[account]; ok {
			body = vb
		}
	}
	s.writeBlob(w, r, et, body)
}

// handleTables is the batch read endpoint:
//
//	GET /v1/tables?combos=zone/type,zone/type,...&probability=P
//
// It streams the requested combos' pre-encoded tables as a JSON array in
// request order, revalidating the whole batch against the epoch ETag. The
// request is all-or-nothing: every combo is resolved before the first byte
// is written, so a miss is a clean 404 rather than a truncated array.
// Batch consumers address combos by the names /v1/combos listed for them:
// canonical names for anonymous callers, the account's visible zone names
// for a mapped tenant (served from the same precomputed view blobs as
// /v1/predictions, so the renamed bodies cost no per-request rewrite).
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	et := s.blobs.Load()
	if et == nil {
		writeNoEpoch(w)
		return
	}
	account := tenantAccount(w)
	if !s.checkStaleness(w, et.asOf) {
		return
	}
	q := r.URL.RawQuery
	var combosParam, prob string
	if fastQuery(q) {
		combosParam, _ = rawQueryValue(q, "combos")
		prob, _ = rawQueryValue(q, "probability")
	} else {
		vals := r.URL.Query()
		combosParam = vals.Get("combos")
		prob = vals.Get("probability")
	}
	if combosParam == "" {
		writeErr(w, http.StatusBadRequest, codeInvalidArgument, "combos is required (comma-separated zone/type pairs)")
		return
	}
	if prob == "" {
		prob = defaultProbKey
	} else if f, err := strconv.ParseFloat(prob, 64); err != nil || !(f > 0 && f < 1) {
		writeErr(w, http.StatusBadRequest, codeInvalidArgument, "invalid probability %q", prob)
		return
	}

	// First pass: resolve every combo before writing anything.
	n := 0
	rest := combosParam
	for rest != "" {
		var part string
		part, rest, _ = strings.Cut(rest, ",")
		zone, typ, ok := strings.Cut(part, "/")
		if !ok || zone == "" || typ == "" {
			writeErr(w, http.StatusBadRequest, codeInvalidArgument, "combo %q must be zone/type", part)
			return
		}
		if _, found := s.lookupTable(et, account, zone, typ, prob); !found {
			writeErr(w, http.StatusNotFound, codeNotFound, "no table for %s/%s at probability %s", zone, typ, prob)
			return
		}
		n++
		if n > maxBatchCombos {
			writeErr(w, http.StatusBadRequest, codeInvalidArgument, "too many combos (limit %d)", maxBatchCombos)
			return
		}
	}
	s.metrics.batchCombos.Observe(float64(n))

	h := w.Header()
	h["Etag"] = et.etagH
	h["Content-Type"] = jsonCTHeader
	if m := r.Header.Get("If-None-Match"); m != "" && etagMatches(m, et.etag) {
		s.metrics.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(openBracket)
	rest = combosParam
	for first := true; rest != ""; first = false {
		var part string
		part, rest, _ = strings.Cut(rest, ",")
		zone, typ, _ := strings.Cut(part, "/")
		body, _ := s.lookupTable(et, account, zone, typ, prob)
		if !first {
			_, _ = w.Write(comma)
		}
		_, _ = w.Write(body)
	}
	_, _ = w.Write(closeBracket)
}
