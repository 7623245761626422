package service

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"time"
)

// This file is the replication seam: the exported, read-only view of one
// blob-store epoch (Epoch), the writer-side publish hook that hands each
// freshly installed epoch to the shipper, and the replica-side install
// path that swaps a received epoch in behind the same atomic pointer the
// refresh path uses. internal/cluster is built entirely on these exports,
// so the replication subsystem never reaches into the service's internals
// and the 0-alloc serving path is shared verbatim between roles.

// Server roles. A writer computes epochs (New); a replica only installs
// epochs shipped to it (NewReplica).
const (
	roleWriter  = "writer"
	roleReplica = "replica"
)

// BlobKey addresses one (combo, probability) entry of an epoch — its table
// and its advise surface — by the exact strings a request carries.
type BlobKey struct {
	Zone, Type, Prob string
}

// compare orders keys by (zone, type, probability spelling): the order of
// an epoch's entries, and so of every walk over them.
func (k BlobKey) compare(o BlobKey) int {
	return cmp.Or(strings.Compare(k.Zone, o.Zone), strings.Compare(k.Type, o.Type), strings.Compare(k.Prob, o.Prob))
}

// Epoch is an immutable snapshot of one blob-store generation: every
// pre-encoded table body and advise surface, the combo listing, and the
// epoch identity (sequence number, asOf, ETag). The replication shipper
// serializes Epochs onto the wire; receivers rebuild them with NewEpochFull
// and install them with InstallEpoch. All byte slices are aliased, not
// copied — callers must treat them as read-only, exactly like the handlers
// do.
type Epoch struct {
	et *encodedTables
}

// Seq is the writer-local epoch sequence number: it increments on every
// blob install and orders epochs for replication. It is not part of the
// serving contract (ETags are derived from asOf, not seq).
func (e *Epoch) Seq() uint64 { return e.et.seq }

// AsOf is the refresh time the epoch's tables were computed at.
func (e *Epoch) AsOf() time.Time { return e.et.asOf }

// ETag is the strong ETag (quoted) every response from this epoch carries.
func (e *Epoch) ETag() string { return e.et.etag }

// NumTables is the entry count: one table and one surface each.
func (e *Epoch) NumTables() int { return len(e.et.entries) }

// SizeBytes is the total pre-encoded payload size.
func (e *Epoch) SizeBytes() int { return e.et.bytes }

// Keys returns every entry's key in sorted order — the deterministic
// iteration order the wire protocol and the checksum both rely on.
func (e *Epoch) Keys() []BlobKey {
	keys := make([]BlobKey, len(e.et.entries))
	for i := range e.et.entries {
		keys[i] = e.et.entries[i].key
	}
	return keys
}

// Blob returns the pre-encoded table body for one key.
func (e *Epoch) Blob(k BlobKey) ([]byte, bool) {
	i, ok := e.et.index[k]
	if !ok {
		return nil, false
	}
	return e.et.entries[i].body, true
}

// SurfaceKeys returns every surface's key in sorted order: the same keys
// as Keys, since every entry carries both a table and a surface.
func (e *Epoch) SurfaceKeys() []BlobKey { return e.Keys() }

// Surface returns the canonical wire encoding of one advise surface — the
// exact bytes the epoch checksum covers and the shipper puts on the wire.
func (e *Epoch) Surface(k BlobKey) ([]byte, bool) {
	i, ok := e.et.index[k]
	if !ok {
		return nil, false
	}
	return e.et.entries[i].enc, true
}

// Combos returns the pre-encoded /v1/combos body.
func (e *Epoch) Combos() []byte { return e.et.combos }

// Checksum is a content hash over everything that determines the bytes a
// node serves: asOf, entry count, every entry's key, table body and
// canonical surface encoding in sorted key order, and the combo listing.
// Two nodes at the same checksum answer every cached read — tables,
// combos, advise, and fleet alike — byte-identically. The sequence number
// is deliberately excluded — it is writer-local bookkeeping, not content —
// and so are the writer-only predictors, from which all of the above
// derives, and the per-account views each node builds from the tables and
// its own mappings.
func (e *Epoch) Checksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	putLen := func(n int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(n))
		_, _ = h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(e.et.asOf.UnixNano()))
	_, _ = h.Write(buf[:])
	putLen(len(e.et.entries))
	for i := range e.et.entries {
		en := &e.et.entries[i]
		for _, s := range [...]string{en.key.Zone, en.key.Type, en.key.Prob} {
			_, _ = h.Write([]byte(s))
			_, _ = h.Write([]byte{0})
		}
		putLen(len(en.body))
		_, _ = h.Write(en.body)
		putLen(len(en.enc))
		_, _ = h.Write(en.enc)
	}
	_, _ = h.Write(e.et.combos)
	return h.Sum64()
}

// NewEpochFull assembles an epoch from received parts: the table blobs,
// the combo listing, and the advise surfaces, each surface given as its
// canonical wire encoding (the bytes Surface returns on the sending side).
// The two maps must hold the same keys: every entry carries a table and a
// surface. Every surface payload is decoded and validated, so the rebuilt
// epoch answers /v1/advise and /v1/fleet bit-identically to the writer
// that encoded it — and hashes to the writer's Checksum, since the
// canonical encodings are retained verbatim. The ETag is recomputed
// locally from (asOf, table count) — the same derivation the writer's
// encodeTables uses — which is what guarantees cross-node ETag identity: a
// replica cannot install an epoch whose ETag differs from what the writer
// serves for the same content. The byte slices are aliased, not copied;
// the caller must not mutate them afterwards.
func NewEpochFull(seq uint64, asOf time.Time, combos []byte, blobs map[BlobKey][]byte, surfaces map[BlobKey][]byte) (*Epoch, error) {
	if seq == 0 {
		return nil, fmt.Errorf("service: epoch sequence must be nonzero")
	}
	if asOf.IsZero() {
		return nil, fmt.Errorf("service: epoch asOf is zero")
	}
	if len(blobs) == 0 {
		return nil, fmt.Errorf("service: epoch has no tables")
	}
	if len(combos) == 0 {
		return nil, fmt.Errorf("service: epoch has no combo listing")
	}
	if len(surfaces) != len(blobs) {
		return nil, fmt.Errorf("service: epoch has %d tables but %d surfaces", len(blobs), len(surfaces))
	}
	entries := make([]entry, 0, len(blobs))
	for k, body := range blobs {
		if k.Zone == "" || k.Type == "" || k.Prob == "" {
			return nil, fmt.Errorf("service: epoch key %+v has empty component", k)
		}
		enc, ok := surfaces[k]
		if !ok {
			return nil, fmt.Errorf("service: epoch table %s/%s/p=%s has no surface", k.Zone, k.Type, k.Prob)
		}
		surf, err := decodeSurface(enc)
		if err != nil {
			return nil, fmt.Errorf("service: epoch surface %s/%s/p=%s: %w", k.Zone, k.Type, k.Prob, err)
		}
		entries = append(entries, entry{key: k, body: body, surf: surf, enc: enc})
	}
	et, err := sortedEpoch(entries, asOf)
	if err != nil {
		return nil, err
	}
	et.seq = seq
	et.combos = combos
	et.bytes += len(combos)
	return &Epoch{et: et}, nil
}

// CurrentEpoch returns the currently installed epoch, or nil before the
// first install.
func (s *Server) CurrentEpoch() *Epoch {
	et := s.blobs.Load()
	if et == nil {
		return nil
	}
	return &Epoch{et: et}
}

// InstallEpoch atomically swaps a received epoch into the serving path.
// It is the replica-side counterpart of the writer's install: the
// same atomic.Pointer store, the same metrics, the same serve-immediately
// semantics — but sourced from the wire rather than a local refresh.
// Regressions are rejected by content, not by bare sequence number:
// sequence numbers are writer-local and restart with the writer, so an
// epoch at or below the installed sequence is dropped only when it is
// also a stale delivery — an exact duplicate of what is installed, or
// content older (by asOf) than what is served. A seq-regressed epoch
// carrying same-or-newer content is a restarted writer renumbering its
// epochs; it is installed so the replica re-anchors to the new numbering
// instead of rejecting every ship until the writer's counter overtakes
// the old one.
func (s *Server) InstallEpoch(ep *Epoch) error {
	if ep == nil || ep.et == nil {
		return fmt.Errorf("service: nil epoch")
	}
	if len(ep.et.entries) == 0 {
		return fmt.Errorf("service: refusing to install empty epoch")
	}
	s.mu.Lock()
	if cur := s.blobs.Load(); cur != nil && ep.et.seq <= cur.seq {
		if ep.et.seq == cur.seq && ep.et.etag == cur.etag {
			installed := cur.seq
			s.mu.Unlock()
			return fmt.Errorf("service: epoch %d is already installed", installed)
		}
		if ep.et.asOf.Before(cur.asOf) {
			installed, asOf := cur.seq, cur.asOf
			s.mu.Unlock()
			return fmt.Errorf("service: epoch %d (asOf %s) is older than installed epoch %d (asOf %s)",
				ep.et.seq, ep.et.asOf.Format(time.RFC3339), installed, asOf.Format(time.RFC3339))
		}
		// Fall through: a writer restart renumbered same-or-newer content.
	}
	// A replica with account mappings builds its per-account views before
	// publishing the epoch: the et is still private to this goroutine, and
	// the epoch checksum excludes views (they are derived data).
	if len(s.cfg.AccountMappings) > 0 && ep.et.views == nil {
		ep.et.buildViews(s.cfg.AccountMappings)
	}
	s.blobs.Store(ep.et)
	s.lastErr = ""
	s.mu.Unlock()
	s.epochSeq.Store(ep.et.seq)
	s.metrics.lastSuccess.SetTime(ep.et.asOf)
	s.published(ep.et)
	return nil
}

// published finishes an install once et is serving: the epoch gauges are
// set and the OnEpoch hook runs.
func (s *Server) published(et *encodedTables) {
	s.metrics.blobBytes.Set(float64(et.bytes))
	s.metrics.tables.Set(float64(len(et.entries)))
	if hook := s.cfg.OnEpoch; hook != nil {
		hook(&Epoch{et: et})
	}
}

// Role reports which role the server was constructed for: "writer" (New)
// or "replica" (NewReplica).
func (s *Server) Role() string { return s.role }

// NewReplica builds a read-only server: it serves the same REST API from
// the same blob store and middleware stack as a writer, but owns no
// price histories and never computes tables — epochs arrive exclusively
// through InstallEpoch (driven by cluster.Receiver). Config.Source must
// be nil and refresh-related hooks are rejected; admission control,
// metrics, tracing, and staleness policy apply exactly as on a writer.
func NewReplica(cfg Config) (*Server, error) {
	if cfg.Source != nil {
		return nil, fmt.Errorf("service: replica must not have a source (it never computes tables)")
	}
	if cfg.PreRefresh != nil {
		return nil, fmt.Errorf("service: replica must not have a pre-refresh hook")
	}
	if cfg.Durable != nil {
		return nil, fmt.Errorf("service: replica must not have durable storage (epochs re-ship on restart)")
	}
	return newServer(cfg, roleReplica)
}
