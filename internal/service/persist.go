package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
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

// serviceSnapshot is the wire form of the server's serving state: every
// published bid table plus the online predictor that produced it. Entries
// are sorted (zone, type, probability) so encoding is deterministic.
//
// The snapshot holds only state the WAL cannot rebuild. Price windows are
// not in it: each predictor records its window's length and checksum, and
// RestoreSnapshot re-slices the window from the history series the WAL
// replay produced (Config.Source).
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
	At          time.Time       `json:"as_of"`
	Points      []snapshotPoint `json:"points"`
	Predictor   json.RawMessage `json:"predictor"`
}

// snapshotPoint stores the guaranteed duration in integer nanoseconds so a
// restored table is bit-identical to the saved one (float seconds would
// round-trip through a division).
type snapshotPoint struct {
	Bid        float64 `json:"bid_usd_per_hour"`
	DurationNS int64   `json:"guaranteed_duration_ns"`
}

// snapshotVersion is the only format RestoreSnapshot reads. Any other
// version, including 1 (which carried price windows inline), fails the
// restore, and the daemon cold-starts.
const snapshotVersion = 2

// EncodeSnapshot serializes the installed epoch's tables and predictors.
// It returns an error when there is nothing to snapshot yet, and on a
// replica, whose epochs carry no predictors.
func (s *Server) EncodeSnapshot() ([]byte, error) {
	et := s.blobs.Load()
	if et == nil || len(et.bidTables) == 0 {
		return nil, fmt.Errorf("service: no tables to snapshot")
	}
	s.mu.Lock()
	lastErr := s.lastErr
	s.mu.Unlock()
	keys := make([]tableKey, 0, len(et.bidTables))
	for k := range et.bidTables {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.combo.Zone != b.combo.Zone {
			return a.combo.Zone < b.combo.Zone
		}
		if a.combo.Type != b.combo.Type {
			return a.combo.Type < b.combo.Type
		}
		return a.prob < b.prob
	})
	snap := serviceSnapshot{
		Version:  snapshotVersion,
		AsOf:     et.asOf,
		EpochSeq: et.seq,
		LastErr:  lastErr,
	}
	for _, k := range keys {
		table := et.bidTables[k]
		entry := snapshotEntry{
			Zone:        string(k.combo.Zone),
			Type:        string(k.combo.Type),
			Probability: k.prob,
			At:          table.At,
		}
		for _, p := range table.Points {
			entry.Points = append(entry.Points, snapshotPoint{
				Bid:        p.Bid,
				DurationNS: int64(p.Duration),
			})
		}
		pred := et.preds[k]
		if pred == nil {
			return nil, fmt.Errorf("service: no predictor for %s/p=%v", k.combo, k.prob)
		}
		var buf bytes.Buffer
		if err := pred.Save(&buf); err != nil {
			return nil, fmt.Errorf("service: saving predictor for %s/p=%v: %w", k.combo, k.prob, err)
		}
		entry.Predictor = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
		snap.Entries = append(snap.Entries, entry)
	}
	return json.Marshal(snap)
}

// RestoreSnapshot installs a previously encoded serving state. Each
// predictor's price window is re-sliced from its combo's Source series,
// then the predictor is fed the history ticks newer than its last
// observation (the WAL tail that arrived after the snapshot was cut). A
// series that cannot reproduce a saved window (too short, off the
// predictor's grid, or failing the window checksum) fails the restore, and
// so does an entry without a predictor: every restored table must get its
// advise surface. The tables themselves are installed exactly as saved — a warm restart serves
// the same bytes it served before the crash until the next refresh
// replaces them.
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
	tables := make(map[tableKey]core.BidTable, len(snap.Entries))
	preds := make(map[tableKey]*core.Predictor, len(snap.Entries))
	replayed := 0
	var (
		series      *history.Series
		seriesCombo spot.Combo
	)
	for _, e := range snap.Entries {
		k := tableKey{
			combo: spot.Combo{Zone: spot.Zone(e.Zone), Type: spot.InstanceType(e.Type)},
			prob:  e.Probability,
		}
		table := core.BidTable{At: e.At, Probability: e.Probability}
		for _, p := range e.Points {
			table.Points = append(table.Points, core.BidPoint{
				Bid:      p.Bid,
				Duration: time.Duration(p.DurationNS),
			})
		}
		tables[k] = table
		if len(e.Predictor) == 0 || string(e.Predictor) == "null" {
			return fmt.Errorf("service: snapshot entry %s/p=%v has no predictor", k.combo, k.prob)
		}
		// Entries are sorted by combo, so each series is fetched once.
		if series == nil || seriesCombo != k.combo {
			series, _ = s.cfg.Source.Full(k.combo)
			seriesCombo = k.combo
		}
		pred, err := core.LoadPredictor(bytes.NewReader(e.Predictor), series)
		if err != nil {
			return fmt.Errorf("service: restoring predictor for %s/p=%v: %w", k.combo, k.prob, err)
		}
		replayed += replayTail(series, pred)
		preds[k] = pred
	}
	// Resume the epoch counter where the snapshot left it, so the install
	// below publishes as EpochSeq+1 and replication sequence numbers stay
	// monotonic across a writer restart.
	if cur := s.epochSeq.Load(); snap.EpochSeq > cur {
		s.epochSeq.CompareAndSwap(cur, snap.EpochSeq)
	}
	// Install the restored tables under the snapshot's original epoch:
	// the warm restart serves the same bytes — and the same ETag, so client
	// caches keep revalidating successfully — it served before the crash.
	if err := s.install(tables, preds, nil, snap.AsOf, snap.LastErr, nil); err != nil {
		return fmt.Errorf("service: installing restored tables: %w", err)
	}
	s.logger.Info("snapshot restored",
		"tables", len(tables), "predictors", len(preds),
		"tail_ticks_replayed", replayed, "as_of", snap.AsOf)
	return nil
}

// replayTail feeds pred every series tick strictly newer than its last
// observation, returning how many it consumed. The predictor knows its own
// clock (Now), so no separate watermark travels in the snapshot.
func replayTail(series *history.Series, pred *core.Predictor) int {
	if series == nil {
		return 0
	}
	next := series.IndexOf(pred.Now()) + 1
	if next < 0 {
		next = 0
	}
	n := 0
	for i := next; i < series.Len(); i++ {
		pred.Observe(series.Prices[i])
		n++
	}
	return n
}
