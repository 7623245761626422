package store

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/drafts-go/drafts/internal/faults"
	"github.com/drafts-go/drafts/internal/spot"
)

// FsyncPolicy controls when the WAL forces appended records to stable
// storage. The trade is the classic one: Always bounds loss to zero at one
// fsync per tick; Interval bounds loss to the flush period; None leaves
// durability to the OS page cache (crash-of-process safe, crash-of-host
// not).
type FsyncPolicy int

const (
	// FsyncInterval (the default) flushes and fsyncs on a background timer.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways fsyncs after every append.
	FsyncAlways
	// FsyncNone never fsyncs automatically; Sync and Close still do.
	FsyncNone
)

// ParseFsyncPolicy maps the flag spellings to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "none":
		return FsyncNone, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval, or none)", s)
}

// String returns the flag spelling ParseFsyncPolicy accepts for p.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNone:
		return "none"
	}
	return "interval"
}

// walOptions parameterize a WAL independent of the snapshot machinery.
type walOptions struct {
	segmentBytes int64
	policy       FsyncPolicy
	every        time.Duration
	faults       *faults.Set // nil disables injection
}

// WAL is a segmented append-only log of price-tick records. Segments are
// numbered files (00000001.log, 00000002.log, ...) capped at segmentBytes;
// only the highest-numbered segment accepts appends, which makes
// retention-based compaction a matter of deleting whole sealed files.
//
// Opening a WAL validates the active segment and truncates a torn final
// record (the crash signature of an interrupted append); sealed segments
// are validated during Replay, where a defect is corruption, not a torn
// write, and fails recovery loudly.
type WAL struct {
	dir string
	opt walOptions

	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	seq    int   // active segment number
	size   int64 // active segment size including buffered bytes
	dirty  bool  // bytes written since the last fsync
	closed bool
	failed bool              // an injected torn write poisoned the active segment
	segs   []int             // all live segment numbers, ascending
	lastAt map[int]time.Time // newest record time per segment, where known
	torn   int64             // bytes dropped from the active segment at open

	stopFlush chan struct{}
	flushDone chan struct{}
}

func segName(seq int) string { return fmt.Sprintf("%08d.log", seq) }

func parseSegName(name string) (int, bool) {
	var seq int
	if _, err := fmt.Sscanf(name, "%08d.log", &seq); err != nil || segName(seq) != name {
		return 0, false
	}
	return seq, true
}

// openWAL opens (creating if necessary) the WAL in dir and repairs the
// active segment's tail.
func openWAL(dir string, opt walOptions) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, e := range entries {
		if seq, ok := parseSegName(e.Name()); ok && !e.IsDir() {
			segs = append(segs, seq)
		}
	}
	sort.Ints(segs)

	w := &WAL{dir: dir, opt: opt, lastAt: make(map[int]time.Time)}
	if len(segs) == 0 {
		w.seq = 1
		w.segs = []int{1}
		if err := w.createActive(); err != nil {
			return nil, err
		}
	} else {
		w.segs = segs
		w.seq = segs[len(segs)-1]
		if err := w.repairActive(); err != nil {
			return nil, err
		}
	}
	if opt.policy == FsyncInterval {
		w.stopFlush = make(chan struct{})
		w.flushDone = make(chan struct{})
		go w.flushLoop()
	}
	return w, nil
}

// createActive creates the active segment file and makes its directory
// entry durable.
func (w *WAL) createActive() error {
	f, err := os.OpenFile(w.activePath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.w = bufio.NewWriterSize(f, 1<<16)
	w.size = 0
	w.dirty = false
	return syncDir(w.dir)
}

// repairActive scans the active (last) segment, truncates anything past
// the final complete valid record — the torn-write repair — and opens the
// segment for append.
func (w *WAL) repairActive() error {
	path := w.activePath()
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var last time.Time
	valid, scanErr := scanFrames(data, func(r Record) error {
		if r.At.After(last) {
			last = r.At
		}
		return nil
	})
	if scanErr != nil {
		var cb callbackError
		if errors.As(scanErr, &cb) {
			return scanErr // cannot happen with this callback, but never truncate on it
		}
		// A defective tail on the segment that was mid-append when the
		// process died is the expected crash signature: drop it.
		if err := os.Truncate(path, valid); err != nil {
			return fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
		}
		w.torn = int64(len(data)) - valid
	}
	if !last.IsZero() {
		w.lastAt[w.seq] = last
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if w.torn > 0 {
		// Make the repair itself durable before accepting new appends.
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return err
		}
	}
	w.f = f
	w.w = bufio.NewWriterSize(f, 1<<16)
	w.size = valid
	w.dirty = false
	return nil
}

func (w *WAL) activePath() string { return filepath.Join(w.dir, segName(w.seq)) }

// TornBytes reports how many bytes of torn final record were dropped when
// the WAL was opened (0 for a clean shutdown).
func (w *WAL) TornBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.torn
}

// Append frames and writes one record, applying the fsync policy and
// rotating the segment when it exceeds the size cap.
func (w *WAL) Append(r Record) error {
	frame, err := appendFrame(nil, r)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	written, err := w.appendLocked(frame, r.At)
	if written {
		mWALAppends.Load().Inc()
	}
	return err
}

// appendRun appends one record per price, the i-th at start+i*step, with
// the same bytes, fault points, fsyncs and rotations as one Append per
// record, but under one lock acquisition, through one reused frame buffer
// and with one appends-counter Add. On error it returns the index of the
// record that failed.
func (w *WAL) appendRun(c spot.Combo, start time.Time, step time.Duration, prices []float64) (int, error) {
	var frame []byte
	written := 0
	w.mu.Lock()
	defer func() {
		w.mu.Unlock()
		mWALAppends.Load().Add(uint64(written))
	}()
	for i, price := range prices {
		at := start.Add(time.Duration(i) * step)
		var err error
		if frame, err = appendFrame(frame[:0], Record{Combo: c, At: at, Price: price}); err != nil {
			return i, err
		}
		ok, err := w.appendLocked(frame, at)
		if ok {
			written++
		}
		if err != nil {
			return i, err
		}
	}
	return len(prices), nil
}

// appendLocked writes one framed record stamped at, applying the fault
// point, the fsync policy and the rotation cap. It reports whether the
// whole frame reached the segment. Callers hold w.mu.
func (w *WAL) appendLocked(frame []byte, at time.Time) (bool, error) {
	if w.closed {
		return false, errors.New("store: append to closed WAL")
	}
	if w.failed {
		return false, errors.New("store: append to failed WAL")
	}
	if f, ok := w.opt.faults.Apply("wal.append"); ok {
		if f.PartialFrac > 0 && f.PartialFrac < 1 {
			// Torn write: a prefix of the frame reaches the file — the
			// on-disk signature of a crash mid-append, which the next
			// open's tail repair must truncate. The WAL refuses further
			// appends, as a real process would by dying here.
			k := int(float64(len(frame)) * f.PartialFrac)
			if k >= len(frame) {
				k = len(frame) - 1
			}
			if k < 1 {
				k = 1
			}
			if _, werr := w.w.Write(frame[:k]); werr != nil {
				return false, werr
			}
			if werr := w.w.Flush(); werr != nil {
				return false, werr
			}
			w.size += int64(k)
			w.dirty = true
			w.failed = true
		}
		return false, f.Err
	}
	if _, err := w.w.Write(frame); err != nil {
		return false, err
	}
	w.size += int64(len(frame))
	w.dirty = true
	if t, ok := w.lastAt[w.seq]; !ok || at.After(t) {
		w.lastAt[w.seq] = at
	}
	if w.opt.policy == FsyncAlways {
		if err := w.syncLocked(); err != nil {
			return true, err
		}
	}
	if w.size >= w.opt.segmentBytes {
		return true, w.rotateLocked()
	}
	return true, nil
}

// syncLocked flushes the write buffer and forces the segment to stable
// storage. Callers hold w.mu.
func (w *WAL) syncLocked() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if !w.dirty {
		return nil
	}
	if err := w.opt.faults.Check("wal.fsync"); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirty = false
	mWALFsyncs.Load().Inc()
	return nil
}

// Sync makes every appended record durable regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	return w.syncLocked()
}

// rotateLocked seals the active segment and starts the next one.
func (w *WAL) rotateLocked() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if w.opt.policy != FsyncNone {
		if err := w.f.Sync(); err != nil {
			return err
		}
		w.dirty = false
		mWALFsyncs.Load().Inc()
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.seq++
	w.segs = append(w.segs, w.seq)
	return w.createActive()
}

// flushLoop services the FsyncInterval policy. A failed background flush
// is retried on the next tick; the terminal flush in Close reports any
// persisting failure.
func (w *WAL) flushLoop() {
	defer close(w.flushDone)
	t := time.NewTicker(w.opt.every)
	defer t.Stop()
	for {
		select {
		case <-w.stopFlush:
			return
		case <-t.C:
			_ = w.Sync()
		}
	}
}

// Replay streams every record in log order — sealed segments first, then
// the active one — to fn. A defective frame in a sealed segment is
// corruption and fails the replay; the active segment tolerates a torn
// tail (already repaired at open, but a crash between Open and Replay is
// handled the same way). fn must not call back into the WAL.
func (w *WAL) Replay(fn func(Record) error) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.w.Flush(); err != nil {
		return 0, err
	}
	total := 0
	for _, seq := range w.segs {
		data, err := os.ReadFile(filepath.Join(w.dir, segName(seq)))
		if err != nil {
			return total, err
		}
		count := 0
		var last time.Time
		_, scanErr := scanFrames(data, func(r Record) error {
			if err := fn(r); err != nil {
				return err
			}
			count++
			if r.At.After(last) {
				last = r.At
			}
			return nil
		})
		total += count
		mWALReplayRecords.Load().Add(uint64(count))
		if !last.IsZero() {
			if t, ok := w.lastAt[seq]; !ok || last.After(t) {
				w.lastAt[seq] = last
			}
		}
		if scanErr != nil {
			var cb callbackError
			if errors.As(scanErr, &cb) {
				return total, cb.err
			}
			if seq != w.seq {
				return total, fmt.Errorf("store: corrupt sealed segment %s: %w", segName(seq), scanErr)
			}
			// Torn tail on the active segment: the records before it were
			// delivered; the tail will be truncated by the next open.
		}
	}
	return total, nil
}

// CompactBefore deletes sealed segments whose every record is older than
// oldest, returning how many were removed. A segment whose newest record
// time is unknown (not yet replayed or appended through this process) is
// conservatively kept. The active segment is never removed.
func (w *WAL) CompactBefore(oldest time.Time) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	removed := 0
	kept := make([]int, 0, len(w.segs))
	var removeErr error
	for i, seq := range w.segs {
		if removeErr != nil {
			kept = append(kept, w.segs[i:]...)
			break
		}
		last, known := w.lastAt[seq]
		if seq == w.seq || !known || !last.Before(oldest) {
			kept = append(kept, seq)
			continue
		}
		if err := os.Remove(filepath.Join(w.dir, segName(seq))); err != nil {
			removeErr = err
			kept = append(kept, seq)
			continue
		}
		delete(w.lastAt, seq)
		removed++
	}
	w.segs = kept
	if removeErr != nil || removed == 0 {
		return removed, removeErr
	}
	return removed, syncDir(w.dir)
}

// Close flushes, fsyncs, and closes the active segment.
func (w *WAL) Close() error {
	if w.stopFlush != nil {
		close(w.stopFlush)
		<-w.flushDone
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.w.Flush()
	if serr := w.f.Sync(); err == nil {
		err = serr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so renames, creates, and removes inside it
// survive power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
