package cluster

import (
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/drafts-go/drafts/internal/service"
	"github.com/drafts-go/drafts/internal/store"
	"github.com/drafts-go/drafts/internal/telemetry"
)

// WALTail is the slice of *store.Store the shipper needs to serve tick
// mirroring: resumable frame-aligned reads of the write-ahead log.
type WALTail interface {
	ReadWALTail(c store.Cursor, maxBytes int) ([]byte, store.Cursor, error)
}

const (
	// shipHistory is how many past epoch digests a shipper retains as
	// delta bases.
	shipHistory = 8
	// shipChunkBytes is the epoch stream's flush granularity.
	shipChunkBytes = 32 << 10
)

// ShipperConfig parameterizes the writer-side epoch shipper.
type ShipperConfig struct {
	// WAL, when non-nil, additionally serves GET /v1/cluster/wal so
	// replicas can mirror the writer's price-tick log. Nil disables the
	// endpoint (404) — epoch shipping does not need it.
	WAL WALTail
	// Logger receives ship outcomes. Nil discards them.
	Logger *slog.Logger
}

// Shipper is the writer side of epoch replication. The daemon points
// service.Config.OnEpoch at Publish, so every blob-store install lands
// here; replicas pull from ShipHandler. The shipper never pushes — pull
// keeps replicas stateless and restarts trivially (a rebooted replica
// simply asks again from nothing).
type Shipper struct {
	cfg ShipperConfig
	// history is how many past epoch digests to retain as delta bases
	// (shipHistory). A replica whose installed epoch has aged out of it
	// receives a full snapshot instead of a delta. maxWait caps one
	// long-poll (longPoll): an up-to-date replica's ship request parks
	// until the next epoch publishes or this expires. Tests shorten both.
	history int
	maxWait time.Duration

	mu      sync.Mutex
	cur     *service.Epoch
	digests map[uint64]*epochDigest
	order   []uint64      // digest sequence numbers, oldest first
	notify  chan struct{} // closed and replaced on every Publish

	stats ShipStats
}

// ShipStats counts the shipper's lifetime activity, for /v1/cluster/status
// and the cluster benchmark.
type ShipStats struct {
	Epoch   uint64 `json:"epoch"` // latest published epoch sequence
	Streams uint64 `json:"streams"`
	Fulls   uint64 `json:"fulls"`
	Deltas  uint64 `json:"deltas"`
	Bytes   uint64 `json:"bytes"`
	Frames  uint64 `json:"frames"`
}

// NewShipper validates the configuration and returns an empty shipper;
// epochs arrive via Publish.
func NewShipper(cfg ShipperConfig) *Shipper {
	if cfg.Logger == nil {
		cfg.Logger = telemetry.NopLogger()
	}
	return &Shipper{
		cfg:     cfg,
		history: shipHistory,
		maxWait: longPoll,
		digests: make(map[uint64]*epochDigest),
		notify:  make(chan struct{}),
	}
}

// Publish records a freshly installed epoch and wakes parked long-polls.
// It is service.Config.OnEpoch: called synchronously on the installing
// goroutine, so it only swaps pointers and hashes blob bodies — no I/O.
func (sh *Shipper) Publish(ep *service.Epoch) {
	if ep == nil {
		return
	}
	d := digestOf(ep)
	sh.mu.Lock()
	sh.cur = ep
	sh.stats.Epoch = ep.Seq()
	if _, dup := sh.digests[d.seq]; !dup {
		sh.digests[d.seq] = d
		sh.order = append(sh.order, d.seq)
		for len(sh.order) > sh.history {
			delete(sh.digests, sh.order[0])
			sh.order = sh.order[1:]
		}
	}
	close(sh.notify)
	sh.notify = make(chan struct{})
	sh.mu.Unlock()
}

// Stats returns a snapshot of the ship counters.
func (sh *Shipper) Stats() ShipStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.stats
}

// snapshot returns the current epoch and its publish-notification channel.
func (sh *Shipper) snapshot() (*service.Epoch, chan struct{}) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.cur, sh.notify
}

// baseFor resolves the delta base a replica claims to hold: its digest
// must still be retained AND carry the ETag the replica observed, or the
// replica gets a full snapshot. The ETag check catches a writer that
// restarted and reused sequence numbers for different content.
func (sh *Shipper) baseFor(have uint64, etag string) *epochDigest {
	if have == 0 {
		return nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d := sh.digests[have]
	if d == nil || d.etag != etag {
		return nil
	}
	return d
}

// ShipHandler serves GET /v1/cluster/ship — the epoch replication stream.
//
//	have, etag      the epoch the replica currently serves (0 / "" if none)
//	wait            "1" parks an up-to-date request until the next publish
//	target, base,   resume cursor: the stream identity and byte offset a
//	offset          truncated transfer reached; honored only while the
//	                writer still ships the identical stream
//
// Responses: 204 when the replica is already at the writer's epoch, 503
// (code "stale", retryable per the client rules) before the first epoch,
// otherwise 200 with an application/octet-stream body of CRC-framed
// messages and the stream identity echoed in X-Drafts-Ship-Target /
// -Base / -Offset headers.
func (sh *Shipper) ShipHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		have, _ := strconv.ParseUint(r.URL.Query().Get("have"), 10, 64)
		etag := r.URL.Query().Get("etag")
		cur, notify := sh.snapshot()
		if cur != nil && cur.Seq() == have && cur.ETag() == etag && r.URL.Query().Get("wait") == "1" {
			timer := time.NewTimer(sh.maxWait)
			select {
			case <-notify:
			case <-timer.C:
			case <-r.Context().Done():
			}
			timer.Stop()
			cur, _ = sh.snapshot()
		}
		if cur == nil {
			httpError(w, http.StatusServiceUnavailable, "stale", "no epoch published yet")
			return
		}
		if cur.Seq() == have && cur.ETag() == etag {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		base := sh.baseFor(have, etag)
		stream := encodeStream(cur, base)
		var baseSeq uint64
		if base != nil {
			baseSeq = base.seq
		}
		// Honor a resume offset only while it addresses this exact stream:
		// same target epoch, same delta base. Anything else restarts at 0
		// and the receiver discards its stale staging.
		off := 0
		if t, _ := strconv.ParseUint(r.URL.Query().Get("target"), 10, 64); t == cur.Seq() {
			if b, _ := strconv.ParseUint(r.URL.Query().Get("base"), 10, 64); b == baseSeq {
				if o, err := strconv.Atoi(r.URL.Query().Get("offset")); err == nil && o > 0 && o <= len(stream) {
					off = o
				}
			}
		}
		h := w.Header()
		h.Set("Content-Type", "application/octet-stream")
		h.Set("X-Drafts-Ship-Target", strconv.FormatUint(cur.Seq(), 10))
		h.Set("X-Drafts-Ship-Base", strconv.FormatUint(baseSeq, 10))
		h.Set("X-Drafts-Ship-Offset", strconv.Itoa(off))
		w.WriteHeader(http.StatusOK)
		sent := sh.writeChunks(w, stream[off:])

		frames := countFrames(stream[off : off+sent])
		mShipStreams.Load().Inc()
		mShipBytes.Load().Add(uint64(sent))
		mShipFrames.Load().Add(uint64(frames))
		sh.mu.Lock()
		sh.stats.Streams++
		if base == nil {
			sh.stats.Fulls++
		} else {
			sh.stats.Deltas++
		}
		sh.stats.Bytes += uint64(sent)
		sh.stats.Frames += uint64(frames)
		sh.mu.Unlock()
		sh.cfg.Logger.Debug("shipped epoch stream",
			"target", cur.Seq(), "base", baseSeq, "offset", off, "bytes", sent)
	})
}

// writeChunks streams b in shipChunkBytes pieces, flushing between them so a
// receiver makes progress (and can persist a resume cursor) before the
// stream completes. Returns how many bytes were written before the first
// error — a cut connection simply ends the transfer; the replica resumes
// from its cursor.
func (sh *Shipper) writeChunks(w http.ResponseWriter, b []byte) int {
	fl, _ := w.(http.Flusher)
	sent := 0
	for sent < len(b) {
		end := sent + shipChunkBytes
		if end > len(b) {
			end = len(b)
		}
		n, err := w.Write(b[sent:end])
		sent += n
		if err != nil {
			return sent
		}
		if fl != nil {
			fl.Flush()
		}
	}
	return sent
}

// countFrames counts whole frames in a stream prefix (partial trailing
// frames are not counted).
func countFrames(b []byte) int {
	n := 0
	for len(b) > 0 {
		_, sz, err := nextFrame(b)
		if err != nil {
			return n
		}
		b = b[sz:]
		n++
	}
	return n
}

// walMaxBytes bounds one /v1/cluster/wal response.
const (
	walDefaultBytes = 256 << 10
	walMaxBytes     = 4 << 20
)

// WALHandler serves GET /v1/cluster/wal?seg=N&off=M&max=B — frame-aligned
// WAL tail reads for replicas mirroring the writer's tick history. The
// next cursor is echoed in X-Drafts-Wal-Seg / X-Drafts-Wal-Off; a caught-
// up reader gets an empty 200 with its own cursor back.
func (sh *Shipper) WALHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sh.cfg.WAL == nil {
			httpError(w, http.StatusNotFound, "not_found", "this writer has no durable tick log")
			return
		}
		q := r.URL.Query()
		seg, _ := strconv.Atoi(q.Get("seg"))
		off, _ := strconv.ParseInt(q.Get("off"), 10, 64)
		max, _ := strconv.Atoi(q.Get("max"))
		if max <= 0 {
			max = walDefaultBytes
		}
		if max > walMaxBytes {
			max = walMaxBytes
		}
		data, next, err := sh.cfg.WAL.ReadWALTail(store.Cursor{Seg: seg, Off: off}, max)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "internal", "wal read: %v", err)
			return
		}
		h := w.Header()
		h.Set("Content-Type", "application/octet-stream")
		h.Set("X-Drafts-Wal-Seg", strconv.Itoa(next.Seg))
		h.Set("X-Drafts-Wal-Off", strconv.FormatInt(next.Off, 10))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	})
}
