package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/spot"
)

// Durable is the sink for the server's crash-recovery state; *store.Store
// satisfies it. After every successful refresh the server hands it the
// encoded serving state and asks it to drop log segments wholly older than
// the oldest tick a restore still needs (Server.walCutoff).
type Durable interface {
	WriteSnapshot(payload []byte) error
	CompactBefore(oldest time.Time) (int, error)
}

// serviceSnapshot is the wire form of the server's serving state: the
// online predictor behind every published (combo, probability), with the
// epoch identity. Entries are sorted (zone, type, probability) so encoding
// is deterministic.
//
// The snapshot holds only state nothing else can rebuild. Tables and advise
// surfaces are not in it: RestoreSnapshot derives both from the restored
// predictors, exactly as the refresh that installed them did. Price windows
// are not in it either: each predictor records its window's length and
// checksum, and RestoreSnapshot re-slices the window from the history
// series the WAL replay produced (Config.Source).
type serviceSnapshot struct {
	Version int       `json:"version"`
	AsOf    time.Time `json:"as_of"`
	// EpochSeq is the epoch counter at snapshot time. Restoring it keeps
	// the replication sequence monotonic across writer restarts, so
	// long-lived replicas never see the writer's numbering run backwards.
	EpochSeq uint64          `json:"epoch_seq,omitempty"`
	LastErr  string          `json:"last_refresh_error,omitempty"`
	Entries  []snapshotEntry `json:"entries"`
}

type snapshotEntry struct {
	Zone        string          `json:"zone"`
	Type        string          `json:"instance_type"`
	Probability float64         `json:"probability"`
	Predictor   json.RawMessage `json:"predictor"`
}

// snapshotVersion is the only format RestoreSnapshot reads. Any other
// version fails the restore, and the daemon cold-starts: 1 carried price
// windows inline, 2 carried every table next to its predictor.
const snapshotVersion = 3

// EncodeSnapshot serializes the installed epoch's predictors, in the
// epoch's entry order. It returns an error when there is nothing to
// snapshot yet, and on a replica, whose epochs carry no predictors.
func (s *Server) EncodeSnapshot() ([]byte, error) {
	et := s.blobs.Load()
	if et == nil || len(et.entries) == 0 || et.entries[0].pred == nil {
		return nil, fmt.Errorf("service: no tables to snapshot")
	}
	s.mu.Lock()
	lastErr := s.lastErr
	s.mu.Unlock()
	snap := serviceSnapshot{
		Version:  snapshotVersion,
		AsOf:     et.asOf,
		EpochSeq: et.seq,
		LastErr:  lastErr,
		Entries:  make([]snapshotEntry, 0, len(et.entries)),
	}
	for i := range et.entries {
		e := &et.entries[i]
		var buf bytes.Buffer
		if err := e.pred.Save(&buf); err != nil {
			return nil, fmt.Errorf("service: saving predictor for %s/%s/p=%s: %w", e.key.Zone, e.key.Type, e.key.Prob, err)
		}
		snap.Entries = append(snap.Entries, snapshotEntry{
			Zone:        e.key.Zone,
			Type:        e.key.Type,
			Probability: e.surf.Probability,
			Predictor:   json.RawMessage(bytes.TrimSpace(buf.Bytes())),
		})
	}
	return json.Marshal(snap)
}

// RestoreSnapshot installs a previously encoded serving state. Each
// predictor's price window is re-sliced from its combo's Source series,
// and its table and advise surface are derived from it as the refresh that
// installed it did, so the restored epoch is the pre-crash epoch byte for
// byte. A series that cannot reproduce a saved window (too short, off the
// predictor's grid, or failing the window checksum) fails the restore, and
// so does an entry without a predictor. Ticks newer than the snapshot (the
// WAL tail) are not fed here: the restored predictors sit at the snapshot's
// clock, and the first refresh extends them like any installed predictor.
func (s *Server) RestoreSnapshot(payload []byte) error {
	var snap serviceSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return fmt.Errorf("service: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("service: unsupported snapshot version %d", snap.Version)
	}
	if len(snap.Entries) == 0 {
		return fmt.Errorf("service: snapshot holds no tables")
	}
	slots := make([]slot, len(snap.Entries))
	var (
		series      *history.Series
		seriesCombo spot.Combo
		first       *core.Predictor // the combo's first restored predictor
	)
	for i, e := range snap.Entries {
		combo := spot.Combo{Zone: spot.Zone(e.Zone), Type: spot.InstanceType(e.Type)}
		if len(e.Predictor) == 0 || string(e.Predictor) == "null" {
			return fmt.Errorf("service: snapshot entry %s/p=%v has no predictor", combo, e.Probability)
		}
		// Entries are sorted by combo, so each series is fetched once, and
		// the combo's later entries share its first entry's window.
		if series == nil || seriesCombo != combo {
			series, _ = s.cfg.Source.Full(combo)
			seriesCombo, first = combo, nil
		}
		pred, err := core.LoadPredictor(bytes.NewReader(e.Predictor), series, first)
		if err != nil {
			return fmt.Errorf("service: restoring predictor for %s/p=%v: %w", combo, e.Probability, err)
		}
		if first == nil {
			first = pred
		}
		slots[i].key = BlobKey{Zone: e.Zone, Type: e.Type, Prob: probKey(e.Probability)}
		if !slots[i].ladder(pred) {
			return fmt.Errorf("service: restored predictor for %s/p=%v has no price history", combo, e.Probability)
		}
	}
	// Resume the epoch counter where the snapshot left it, so the install
	// below publishes as EpochSeq+1 and replication sequence numbers stay
	// monotonic across a writer restart.
	if cur := s.epochSeq.Load(); snap.EpochSeq > cur {
		s.epochSeq.CompareAndSwap(cur, snap.EpochSeq)
	}
	// Install under the snapshot's original epoch: the warm restart serves
	// the same bytes — and the same ETag, so client caches keep
	// revalidating successfully — it served before the crash.
	if err := s.install(slots, snap.AsOf, snap.LastErr, nil, false); err != nil {
		return fmt.Errorf("service: installing restored tables: %w", err)
	}
	s.logger.Info("snapshot restored", "tables", len(slots), "as_of", snap.AsOf)
	return nil
}
