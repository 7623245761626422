package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"github.com/drafts-go/drafts/internal/service"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/store"
	"github.com/drafts-go/drafts/internal/telemetry"
	"github.com/drafts-go/drafts/internal/trace"
)

// Installer is the slice of *service.Server the receiver needs: read the
// installed epoch, swap in a new one.
type Installer interface {
	CurrentEpoch() *service.Epoch
	InstallEpoch(*service.Epoch) error
}

// TickMirror is the slice of *store.Store a replica uses to mirror the
// writer's price-tick log locally (optional; a pure serving replica
// needs no tick history at all).
type TickMirror interface {
	AppendTick(c spot.Combo, at time.Time, price float64) error
	Sync() error
}

// ReceiverConfig parameterizes the replica-side replication loop.
type ReceiverConfig struct {
	// Writer is the writer node's base URL (e.g. "http://10.0.0.1:8080").
	Writer string
	// Server is the local blob store epochs install into.
	Server Installer
	// Now supplies the wall clock (the cluster package never reads it
	// directly — the same determinism seam the store uses). Required.
	Now func() time.Time
	// HTTPClient performs the pulls (default http.DefaultClient).
	HTTPClient *http.Client
	// Seed seeds the retry jitter.
	Seed int64
	// Tracer, when non-nil, records each replication cycle as a forced
	// "replicate" trace (ship → install → swap spans) in the flight
	// recorder, alongside the writer's refresh traces.
	Tracer *trace.Tracer
	// Logger receives replication outcomes. Nil discards them.
	Logger *slog.Logger
	// Mirror, when non-nil, additionally tails the writer's WAL via
	// /v1/cluster/wal and appends the ticks locally; MirrorPath persists
	// the resume cursor (JSON, tmp+rename) across restarts.
	Mirror     TickMirror
	MirrorPath string
}

// errIncomplete reports a stream that ended before its commit frame: the
// staged prefix is retained and the next cycle resumes from the cursor.
var errIncomplete = fmt.Errorf("cluster: stream ended before commit; will resume")

// staging is a partially received epoch stream: the stream identity and
// every complete frame received so far. Its byte length is the resume
// offset — torn tails are trimmed before it is retained, so the cursor
// always sits on a frame boundary, exactly like the WAL's repair.
type staging struct {
	target uint64 // epoch the stream ships
	base   uint64 // delta base (0 = full snapshot)
	buf    []byte // complete frames only
}

// Receiver pulls epochs from the writer and installs them locally. Run
// drives it; everything else is bookkeeping exposed to /v1/cluster/status.
type Receiver struct {
	cfg     ReceiverConfig
	rng     *rand.Rand
	shipURL string
	// pollInterval paces retries (the package's pollInterval; tests
	// shorten it).
	pollInterval time.Duration

	mu        sync.Mutex
	staging   *staging
	writerSeq uint64 // latest epoch observed at the writer
	installs  uint64
	lastErr   string
	cursor    store.Cursor // WAL mirror position
	mirrorOK  bool         // cursor loaded (or initialized) from MirrorPath
	mirrorOff bool         // writer has no WAL; stop asking
}

// ReceiverStatus is the receiver's state for /v1/cluster/status.
type ReceiverStatus struct {
	Writer      string `json:"writer"`
	WriterEpoch uint64 `json:"writer_epoch"`
	Installs    uint64 `json:"installs"`
	LastError   string `json:"last_error,omitempty"`
}

// NewReceiver validates the configuration.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.Writer == "" {
		return nil, fmt.Errorf("cluster: receiver needs a writer URL")
	}
	if cfg.Server == nil {
		return nil, fmt.Errorf("cluster: receiver needs a server to install into")
	}
	if cfg.Now == nil {
		return nil, fmt.Errorf("cluster: receiver needs a clock")
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.Logger == nil {
		cfg.Logger = telemetry.NopLogger()
	}
	return &Receiver{
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		shipURL:      cfg.Writer + "/v1/cluster/ship",
		pollInterval: pollInterval,
	}, nil
}

// Status returns a snapshot of the receiver's replication state.
func (rc *Receiver) Status() ReceiverStatus {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return ReceiverStatus{
		Writer:      rc.cfg.Writer,
		WriterEpoch: rc.writerSeq,
		Installs:    rc.installs,
		LastError:   rc.lastErr,
	}
}

// Run drives the replication loop until ctx is cancelled: long-poll the
// writer, stage the stream, install on commit, mirror the WAL tail, and
// pace retries with jitter after failures. Meant to be spawned as one
// goroutine per replica process.
func (rc *Receiver) Run(ctx context.Context) {
	for ctx.Err() == nil {
		pause, err := rc.step(ctx)
		rc.mu.Lock()
		if err != nil {
			rc.lastErr = err.Error()
		} else {
			rc.lastErr = ""
		}
		rc.mu.Unlock()
		if err != nil && ctx.Err() == nil {
			mShipErrors.Load().Inc()
			rc.cfg.Logger.Warn("replication cycle failed; will retry", "err", err)
			pause = true
		}
		if rc.cfg.Mirror != nil {
			if merr := rc.mirrorTail(ctx); merr != nil && ctx.Err() == nil {
				rc.cfg.Logger.Warn("wal mirror failed; will retry", "err", merr)
			}
		}
		if pause {
			rc.sleep(ctx)
		}
	}
}

// sleep pauses one jittered poll interval (d/2 .. 3d/2) or until cancel.
func (rc *Receiver) sleep(ctx context.Context) {
	d := rc.pollInterval
	d = d/2 + time.Duration(rc.rng.Int63n(int64(d)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// step runs one replication cycle. pause=true asks Run to sleep before
// the next cycle (idle writer or error); a successful long-poll already
// paced itself.
func (rc *Receiver) step(ctx context.Context) (pause bool, err error) {
	began := rc.cfg.Now()
	tr := rc.cfg.Tracer.StartTrace("replicate")
	defer tr.End()

	var have uint64
	var etag string
	if cur := rc.cfg.Server.CurrentEpoch(); cur != nil {
		have, etag = cur.Seq(), cur.ETag()
	}

	st, base, pause, err := rc.shipOnce(ctx, tr, have, etag)
	if err != nil {
		tr.Fail(err)
		return true, err
	}
	if st == nil { // nothing to install: caught up, or the writer isn't ready
		return pause, nil
	}
	tr.Force() // an install (or its failure) belongs in the flight recorder

	isp := tr.StartSpan("install")
	ep, err := rc.assemble(st)
	isp.EndErr(err)
	if err != nil {
		rc.setStaging(nil)
		tr.Fail(err)
		return true, err
	}
	ssp := tr.StartSpan("swap")
	err = rc.cfg.Server.InstallEpoch(ep)
	ssp.EndErr(err)
	rc.setStaging(nil)
	if err != nil {
		tr.Fail(err)
		return true, err
	}
	rc.mu.Lock()
	rc.installs++
	rc.mu.Unlock()
	mInstalls.Load().Inc()
	mEpochLag.Load().Set(0)
	mCatchupSeconds.Load().Observe(rc.cfg.Now().Sub(began).Seconds())
	rc.cfg.Logger.Info("installed replicated epoch",
		"epoch", ep.Seq(), "tables", ep.NumTables(), "bytes", ep.SizeBytes(),
		"from", base, "stream_bytes", len(st.buf))
	return false, nil
}

// shipOnce runs the shipping phase of one cycle — fetch, stage, trim to
// the last complete frame, and check for the commit — under one "ship"
// span that ends with whatever error the phase returns. A nil staging
// with a nil error means there is nothing to install (already caught up,
// or the writer has no epoch yet); pause tells Run whether to sleep.
func (rc *Receiver) shipOnce(ctx context.Context, tr *trace.Trace, have uint64, etag string) (st *staging, base uint64, pause bool, err error) {
	sp := tr.StartSpan("ship")
	defer func() { sp.EndErr(err) }()

	resp, err := rc.fetch(ctx, have, etag)
	if err != nil {
		return nil, 0, true, err
	}
	defer func() { _ = resp.Body.Close() }()

	switch resp.StatusCode {
	case http.StatusNoContent: // already at the writer's epoch
		rc.noteWriter(have)
		mEpochLag.Load().Set(0)
		return nil, 0, false, nil
	case http.StatusServiceUnavailable: // writer has no epoch yet
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, 0, true, nil
	case http.StatusOK:
	default:
		return nil, 0, true, fmt.Errorf("cluster: writer answered %s", resp.Status)
	}

	target, _ := strconv.ParseUint(resp.Header.Get("X-Drafts-Ship-Target"), 10, 64)
	base, _ = strconv.ParseUint(resp.Header.Get("X-Drafts-Ship-Base"), 10, 64)
	offset, _ := strconv.Atoi(resp.Header.Get("X-Drafts-Ship-Offset"))
	st = rc.resumeStaging(target, base, offset)
	rc.noteWriter(target)
	if have > 0 && target > have {
		mEpochLag.Load().Set(float64(target - have))
	}

	readErr := rc.readStream(st, resp.Body)
	// Trim any torn tail to the last complete frame — the staged buffer
	// (and therefore the resume offset) always ends on a frame boundary.
	whole := wholeFrames(st.buf)
	if whole < len(st.buf) {
		mRecvTorn.Load().Inc()
		st.buf = st.buf[:whole]
	}
	committed, derr := streamCommitted(st.buf)
	if derr != nil {
		// Corrupt frame: the staging is poisoned; restart from scratch.
		rc.setStaging(nil)
		return nil, 0, true, fmt.Errorf("cluster: corrupt stream from writer: %w", derr)
	}
	if !committed {
		rc.setStaging(st)
		if readErr != nil {
			return nil, 0, true, fmt.Errorf("cluster: stream truncated at offset %d: %w", len(st.buf), readErr)
		}
		return nil, 0, true, errIncomplete
	}
	return st, base, false, nil
}

// fetch issues one ship request, attaching the resume cursor when a
// matching staged prefix exists.
func (rc *Receiver) fetch(ctx context.Context, have uint64, etag string) (*http.Response, error) {
	q := url.Values{}
	q.Set("have", strconv.FormatUint(have, 10))
	q.Set("etag", etag)
	q.Set("wait", "1")
	rc.mu.Lock()
	if rc.staging != nil {
		q.Set("target", strconv.FormatUint(rc.staging.target, 10))
		q.Set("base", strconv.FormatUint(rc.staging.base, 10))
		q.Set("offset", strconv.Itoa(len(rc.staging.buf)))
	}
	rc.mu.Unlock()
	// Bound the request past the writer's long-poll window so a hung
	// connection cannot park the loop forever.
	rctx, cancel := context.WithTimeout(ctx, longPoll+pollInterval+10*time.Second)
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, rc.shipURL+"?"+q.Encode(), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := rc.cfg.HTTPClient.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	// The cancel rides with the body: step always closes resp.Body.
	resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// cancelBody releases the request's context deadline when the body closes.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// resumeStaging returns the staging to accumulate into: the retained one
// when the writer confirmed our cursor (same target, same base, resumed
// at exactly our staged length), else a fresh one. A stale staging for a
// superseded stream is discarded — the writer has moved on.
func (rc *Receiver) resumeStaging(target, base uint64, offset int) *staging {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.staging != nil && rc.staging.target == target && rc.staging.base == base &&
		offset == len(rc.staging.buf) {
		st := rc.staging
		rc.staging = nil // owned by the caller until setStaging
		return st
	}
	rc.staging = nil
	return &staging{target: target, base: base}
}

func (rc *Receiver) setStaging(st *staging) {
	rc.mu.Lock()
	rc.staging = st
	rc.mu.Unlock()
}

// noteWriter records the writer's latest announced epoch as-is (not
// max-ed): a restarted writer legitimately renumbers from 1, and status
// and lag reporting must follow it down rather than show a permanent
// phantom lag against the old numbering.
func (rc *Receiver) noteWriter(seq uint64) {
	rc.mu.Lock()
	rc.writerSeq = seq
	rc.mu.Unlock()
}

// readStream drains the response body into the staging buffer, counting
// received bytes. A read error ends the transfer; whatever arrived is
// kept for the resume path.
func (rc *Receiver) readStream(st *staging, body io.Reader) error {
	chunk := make([]byte, 32<<10)
	for {
		n, err := body.Read(chunk)
		if n > 0 {
			st.buf = append(st.buf, chunk[:n]...)
			mRecvBytes.Load().Add(uint64(n))
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// wholeFrames returns the length of the longest prefix of b consisting of
// complete frames.
func wholeFrames(b []byte) int {
	off := 0
	for off < len(b) {
		_, n, err := nextFrame(b[off:])
		if err != nil {
			return off
		}
		off += n
	}
	return off
}

// streamCommitted reports whether a (frame-aligned) stream ends with its
// commit frame. A decode error other than a short tail is corruption.
func streamCommitted(b []byte) (bool, error) {
	committed := false
	for off := 0; off < len(b); {
		p, n, err := nextFrame(b[off:])
		if err != nil {
			return false, err
		}
		if committed {
			return false, fmt.Errorf("cluster: frame after commit")
		}
		if p[0] == frameCommit {
			committed = true
		}
		off += n
	}
	return committed, nil
}

// assemble decodes a committed stream into an installable epoch,
// verifying everything the wire carried: frame order, the stream identity,
// the delta base, the recomputed ETag, the table count, and the content
// checksum. A delta starts from the installed base's entries, which the
// stream's entry frames overwrite and its remove frames drop.
func (rc *Receiver) assemble(st *staging) (*service.Epoch, error) {
	var (
		meta      metaFrame
		gotMeta   bool
		combos    []byte
		commit    commitFrame
		gotCommit bool
		blobs     = map[service.BlobKey][]byte{}
		surfaces  = map[service.BlobKey][]byte{}
	)
	for off := 0; off < len(st.buf); {
		p, n, err := nextFrame(st.buf[off:])
		if err != nil {
			return nil, err
		}
		off += n
		mRecvFrames.Load().Inc()
		switch {
		case !gotMeta:
			if p[0] != frameMeta {
				return nil, fmt.Errorf("cluster: stream does not start with meta frame")
			}
			if meta, err = decodeMeta(p); err != nil {
				return nil, err
			}
			if meta.seq != st.target || meta.base != st.base {
				return nil, fmt.Errorf("cluster: stream identity mismatch (meta %d/%d, cursor %d/%d)",
					meta.seq, meta.base, st.target, st.base)
			}
			if meta.base != 0 {
				prev := rc.cfg.Server.CurrentEpoch()
				if prev == nil || prev.Seq() != meta.base {
					return nil, fmt.Errorf("cluster: delta against epoch %d but %s is installed",
						meta.base, epochLabel(prev))
				}
				for _, k := range prev.Keys() {
					blobs[k], _ = prev.Blob(k)
					surfaces[k], _ = prev.Surface(k)
				}
				combos = prev.Combos()
			}
			gotMeta = true
		case p[0] == frameCombos:
			combos = append([]byte(nil), p[1:]...)
		case p[0] == frameEntry:
			k, body, enc, err := decodeEntry(p)
			if err != nil {
				return nil, err
			}
			blobs[k] = append([]byte(nil), body...)
			surfaces[k] = append([]byte(nil), enc...)
		case p[0] == frameRemove:
			k, err := decodeRemove(p)
			if err != nil {
				return nil, err
			}
			delete(blobs, k)
			delete(surfaces, k)
		case p[0] == frameCommit:
			commit, err = decodeCommit(p)
			if err != nil {
				return nil, err
			}
			gotCommit = true
		default:
			return nil, fmt.Errorf("cluster: unknown frame type %d", p[0])
		}
	}
	if !gotMeta || !gotCommit {
		return nil, fmt.Errorf("cluster: stream missing meta or commit frame")
	}
	ep, err := service.NewEpochFull(meta.seq, meta.asOf, combos, blobs, surfaces)
	if err != nil {
		return nil, err
	}
	if ep.ETag() != meta.etag {
		return nil, fmt.Errorf("cluster: rebuilt ETag %s differs from writer's %s", ep.ETag(), meta.etag)
	}
	if ep.NumTables() != meta.count || ep.NumTables() != commit.count {
		return nil, fmt.Errorf("cluster: table count mismatch (built %d, meta %d, commit %d)",
			ep.NumTables(), meta.count, commit.count)
	}
	if got := ep.Checksum(); got != commit.checksum {
		return nil, fmt.Errorf("cluster: content checksum mismatch (%x != %x)", got, commit.checksum)
	}
	return ep, nil
}

func epochLabel(ep *service.Epoch) string {
	if ep == nil {
		return "nothing"
	}
	return fmt.Sprintf("epoch %d", ep.Seq())
}

// mirrorTail advances the local tick mirror from the writer's WAL: read
// frame-aligned chunks from the persisted cursor, append each record
// locally, persist the new cursor. Bounded to a few rounds per cycle so
// a far-behind mirror cannot starve epoch replication.
func (rc *Receiver) mirrorTail(ctx context.Context) error {
	rc.mu.Lock()
	if rc.mirrorOff {
		rc.mu.Unlock()
		return nil
	}
	if !rc.mirrorOK {
		rc.cursor = loadCursor(rc.cfg.MirrorPath)
		rc.mirrorOK = true
	}
	cur := rc.cursor
	rc.mu.Unlock()

	for round := 0; round < 8; round++ {
		if ctx.Err() != nil {
			break
		}
		q := url.Values{}
		q.Set("seg", strconv.Itoa(cur.Seg))
		q.Set("off", strconv.FormatInt(cur.Off, 10))
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			rc.cfg.Writer+"/v1/cluster/wal?"+q.Encode(), nil)
		if err != nil {
			return err
		}
		resp, err := rc.cfg.HTTPClient.Do(req)
		if err != nil {
			return err
		}
		data, rerr := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			rc.mu.Lock()
			rc.mirrorOff = true
			rc.mu.Unlock()
			rc.cfg.Logger.Info("writer has no durable tick log; mirror disabled")
			return nil
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("cluster: wal tail: writer answered %s", resp.Status)
		}
		if rerr != nil {
			return rerr
		}
		next := store.Cursor{}
		next.Seg, _ = strconv.Atoi(resp.Header.Get("X-Drafts-Wal-Seg"))
		next.Off, _ = strconv.ParseInt(resp.Header.Get("X-Drafts-Wal-Off"), 10, 64)
		if len(data) > 0 {
			if _, err := store.ScanRecords(data, func(r store.Record) error {
				return rc.cfg.Mirror.AppendTick(r.Combo, r.At, r.Price)
			}); err != nil {
				return err
			}
			// Durability order: the appended ticks must reach the mirror's
			// disk before the cursor marking them consumed is persisted. The
			// reverse order would, across a crash between the two writes,
			// leave a durable cursor pointing past ticks that were never
			// synced — a silent permanent gap in the mirrored history.
			if err := rc.cfg.Mirror.Sync(); err != nil {
				return err
			}
		}
		if next == cur {
			break // caught up
		}
		cur = next
		rc.mu.Lock()
		rc.cursor = cur
		rc.mu.Unlock()
		if err := saveCursor(rc.cfg.MirrorPath, cur); err != nil {
			rc.cfg.Logger.Warn("persisting mirror cursor failed", "err", err)
		}
		if len(data) == 0 {
			break
		}
	}
	return nil
}

// loadCursor reads a persisted mirror cursor; any failure starts from the
// log's beginning (duplicate ticks are deduplicated by replay's
// first-write-wins, so re-reading is safe, just wasteful).
func loadCursor(path string) store.Cursor {
	var c store.Cursor
	if path == "" {
		return c
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return c
	}
	_ = json.Unmarshal(data, &c)
	return c
}

// saveCursor persists the mirror cursor atomically (tmp + rename).
func saveCursor(path string, c store.Cursor) error {
	if path == "" {
		return nil
	}
	data, err := json.Marshal(c)
	if err != nil {
		return err
	}
	tmp := filepath.Join(filepath.Dir(path), ".cursor.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
