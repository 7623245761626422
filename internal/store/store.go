// Package store is the daemon's durable-state subsystem: a segmented
// write-ahead log of price ticks plus atomic snapshots of the served
// prediction state, giving draftsd warm restarts with bounded recovery
// time.
//
// The paper's DrAFTS service ran continuously for months (§3.3); a
// process that amnesiac-restarts into a full cold recompute cannot. The
// recovery contract here is the standard checkpoint + log one:
//
//   - every price tick the daemon ingests is appended to the WAL
//     (CRC-checksummed, length-prefixed records in numbered segment
//     files) under a configurable fsync policy;
//   - after each successful refresh the service writes a snapshot of its
//     per-combo predictor state through WriteSnapshot (write-temp +
//     rename, checksummed, newest-valid-wins);
//   - recovery replays the WAL into a history archive (ReplayHistory) and
//     restores the newest valid snapshot, so the process serves its
//     pre-crash tables immediately; the first fresh refresh then feeds
//     each restored predictor the WAL ticks newer than its last
//     observation.
//
// Segment rotation plus CompactBefore bound the log's footprint: once
// every record in a sealed segment is older than the caller's cutoff the
// whole file is deleted. The service's cutoff keeps every tick a restored
// predictor re-slices, and never reaches past the provider's 90-day
// history retention (history.Retention). Opening the WAL repairs the torn final record a mid-append
// crash leaves behind; all other corruption fails recovery loudly rather
// than serving wrong prices.
//
// Like the rest of the repository the package is deterministic: it never
// reads the wall clock — every timestamp (tick times, compaction cutoffs)
// is supplied by the caller — so crash-recovery tests replay bit-for-bit.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/drafts-go/drafts/internal/faults"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/spot"
)

const (
	// fsyncEvery is the FsyncInterval flush period.
	fsyncEvery = time.Second
	// keepSnapshots is how many published snapshots a store retains: the
	// newest plus one fallback should the newest prove defective.
	keepSnapshots = 2
)

// Options configure a Store. The zero value means: interval fsync every
// second and 8 MiB segments.
type Options struct {
	// Fsync selects the WAL durability policy.
	Fsync FsyncPolicy
	// SegmentBytes caps a WAL segment before rotation (default 8 MiB).
	SegmentBytes int64
	// Faults optionally injects failures at the "wal.append", "wal.fsync"
	// and "snapshot.write" operation points. nil (the production default)
	// disables injection.
	Faults *faults.Set
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	return o
}

// Store ties the WAL and the snapshot directory under one data dir:
//
//	<dir>/wal/00000001.log ...      tick log segments
//	<dir>/snapshots/<seq>.snap ...  serving-state snapshots
type Store struct {
	dir string
	opt Options
	wal *WAL

	mu      sync.Mutex
	snapSeq uint64 // newest published snapshot sequence
}

// Open creates (if necessary) and opens the durable state under dir,
// repairing a torn WAL tail and sweeping crash-orphaned temp files.
func Open(dir string, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	snapDir := filepath.Join(dir, "snapshots")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return nil, err
	}
	if err := removeStaleTemps(snapDir); err != nil {
		return nil, err
	}
	wal, err := openWAL(filepath.Join(dir, "wal"), walOptions{
		segmentBytes: opt.SegmentBytes,
		policy:       opt.Fsync,
		every:        fsyncEvery,
		faults:       opt.Faults,
	})
	if err != nil {
		return nil, err
	}
	seqs, err := listSnapshots(snapDir)
	if err != nil {
		_ = wal.Close()
		return nil, err
	}
	st := &Store{dir: dir, opt: opt, wal: wal}
	if len(seqs) > 0 {
		st.snapSeq = seqs[len(seqs)-1]
	}
	return st, nil
}

// TornBytes reports how many bytes of torn final WAL record were dropped
// at open (0 after a clean shutdown).
func (s *Store) TornBytes() int64 { return s.wal.TornBytes() }

// AppendTick durably records one price announcement.
func (s *Store) AppendTick(c spot.Combo, at time.Time, price float64) error {
	return s.wal.Append(Record{Combo: c, At: at, Price: price})
}

// AppendSeries records every tick of a series — the bootstrap path that
// seeds a fresh WAL from an existing history. The caller should Sync
// afterwards.
func (s *Store) AppendSeries(c spot.Combo, ser *history.Series) error {
	for i, p := range ser.Prices {
		if err := s.wal.Append(Record{Combo: c, At: ser.TimeAt(i), Price: p}); err != nil {
			return fmt.Errorf("store: appending %v tick %d: %w", c, i, err)
		}
	}
	return nil
}

// maxGapFill bounds how many missing grid steps ReplayHistory will bridge
// with last-observation-carried-forward before declaring the log corrupt
// (a wild timestamp would otherwise balloon a series). Twice the
// retention window comfortably covers any legitimate daemon downtime.
const maxGapFill = int(2 * history.Retention / spot.UpdatePeriod)

// ReplayHistory rebuilds the price archive from the log. Ticks replay in
// append order per combo; a duplicate or out-of-order tick is ignored
// (first write wins) and a gap in the grid is bridged by carrying the
// last price forward, mirroring history.Resample's semantics. The record
// count includes every valid WAL record read. An empty WAL returns a nil
// store and zero records — the caller's cold-start signal.
func (s *Store) ReplayHistory() (*history.Store, int, error) {
	series := make(map[spot.Combo]*history.Series)
	n, err := s.wal.Replay(func(r Record) error {
		ser, ok := series[r.Combo]
		if !ok {
			ser = history.NewSeries(r.At)
			series[r.Combo] = ser
		}
		idx := ser.IndexOf(r.At)
		switch {
		case idx < ser.Len():
			// Duplicate or out-of-order tick: the first write wins.
			return nil
		case idx > ser.Len()+maxGapFill:
			return fmt.Errorf("store: %v tick at %v leaves a %d-step gap",
				r.Combo, r.At, idx-ser.Len())
		default:
			last := r.Price
			if ser.Len() > 0 {
				last = ser.Prices[ser.Len()-1]
			}
			for ser.Len() < idx {
				ser.Append(last)
			}
			ser.Append(r.Price)
			return nil
		}
	})
	if err != nil {
		return nil, n, err
	}
	if len(series) == 0 {
		return nil, 0, nil
	}
	combos := make([]spot.Combo, 0, len(series))
	for c := range series {
		combos = append(combos, c)
	}
	sort.Slice(combos, func(i, j int) bool {
		if combos[i].Zone != combos[j].Zone {
			return combos[i].Zone < combos[j].Zone
		}
		return combos[i].Type < combos[j].Type
	})
	hs := history.NewStore()
	for _, c := range combos {
		if err := hs.Put(c, series[c]); err != nil {
			return nil, n, fmt.Errorf("store: replayed series rejected: %w", err)
		}
	}
	return hs, n, nil
}

// WriteSnapshot publishes payload as the newest snapshot. The WAL is
// synced first so the log is never behind the state a snapshot captures,
// then older snapshots beyond the retention count are pruned.
func (s *Store) WriteSnapshot(payload []byte) error {
	if err := s.wal.Sync(); err != nil {
		return err
	}
	writeLen := len(payload)
	if f, ok := s.opt.Faults.Apply("snapshot.write"); ok {
		if f.PartialFrac <= 0 || f.PartialFrac >= 1 {
			return f.Err
		}
		// Silent partial write: the header still declares the full payload,
		// but only a prefix reaches the file before rename publishes it —
		// the storage-lied failure mode the load-time validation exists
		// for. The write "succeeds"; the corruption surfaces only when a
		// recovery attempts to read this snapshot and falls back.
		writeLen = int(float64(len(payload)) * f.PartialFrac)
		if writeLen >= len(payload) {
			writeLen = len(payload) - 1
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.snapSeq + 1
	snapDir := filepath.Join(s.dir, "snapshots")
	if err := writeSnapshotFile(snapDir, seq, payload, writeLen); err != nil {
		return err
	}
	s.snapSeq = seq
	mSnapshotBytes.Load().Set(float64(len(payload)))
	return pruneSnapshots(snapDir, keepSnapshots)
}

// LoadSnapshot returns the newest snapshot payload that validates; ok is
// false when none exists.
func (s *Store) LoadSnapshot() ([]byte, bool, error) {
	payload, _, ok, err := loadNewestSnapshot(filepath.Join(s.dir, "snapshots"))
	return payload, ok, err
}

// CompactBefore removes sealed WAL segments wholly older than oldest.
func (s *Store) CompactBefore(oldest time.Time) (int, error) {
	return s.wal.CompactBefore(oldest)
}

// Sync forces all appended ticks to stable storage.
func (s *Store) Sync() error { return s.wal.Sync() }

// Close syncs and closes the log.
func (s *Store) Close() error { return s.wal.Close() }
