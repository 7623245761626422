// Package cluster is the replication subsystem: a single writer ships
// each blob-store epoch to stateless read replicas, which install it
// atomically behind the same pointer swap the writer's refresh uses —
// so every node serves byte-identical bodies and ETags at the same
// epoch, and the 0-alloc cached-GET path is untouched.
//
// The pieces:
//
//   - Shipper (writer side): retains recent epoch digests and serves
//     GET /v1/cluster/ship — a CRC-framed, chunked, resumable stream
//     carrying either a full epoch snapshot (first contact, or the
//     replica fell behind the retained history) or a delta against an
//     epoch the replica already holds.
//   - Receiver (replica side): long-polls the writer, stages frames,
//     survives truncation at any byte (torn tails are discarded and the
//     stream resumes from an (epoch, offset) cursor, mirroring the
//     store's torn-tail repair), verifies the commit checksum, and
//     installs via service.InstallEpoch. Optionally mirrors the
//     writer's WAL ticks through the same cursor machinery.
//   - Membership + Router: a /v1/cluster/status poll feeds a
//     consistent-hash ring (internal/hashring) over healthy read
//     nodes; the router forwards each read to the combo's owner and
//     fails over clockwise, per the client's retry rules.
//
// Everything is stdlib-only and deterministic where it matters: stream
// encoding iterates epochs in sorted key order, so a resumed transfer
// re-renders the identical byte stream and continues from its offset.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"sort"
	"time"

	"github.com/drafts-go/drafts/internal/service"
)

// The cluster's timings, each one fact shared by every side that needs it.
const (
	// pollInterval paces membership's status polls (and bounds each probe)
	// and a replica's retries after an error or an idle writer (±50%
	// jitter there).
	pollInterval = 2 * time.Second
	// longPoll is how long an up-to-date replica's ship request parks at
	// the writer awaiting the next epoch; the replica bounds its request
	// past it.
	longPoll = 25 * time.Second
)

// Wire framing for the epoch stream. Every frame is length-prefixed and
// CRC-checksummed — the same armor the store's WAL uses — so a connection
// cut at any byte leaves a detectable torn tail, never a silently wrong
// table:
//
//	uint32 LE  payload length
//	uint32 LE  IEEE CRC32 of the payload
//	payload:   one tagged message, first byte is the frame type
//
// A stream is: one meta frame, the changed content frames (combos,
// tables, removals, advise surfaces, surface removals) in sorted key
// order, and one commit frame carrying the epoch content checksum. Full
// snapshots are the degenerate delta against nothing.
//
// Ship version history: v1 shipped tables only; v2 added the advise
// surface frames and folded surfaces into the epoch checksum. Mixed
// versions fail closed — a v1 peer rejects the version byte, and a v2
// receiver rejects v1 streams — because a v1-assembled epoch could not
// verify a v2 checksum anyway.
const (
	shipVersion = 2

	frameMeta          = 1 // version, seq, base seq, asOf, table count, etag
	frameCombos        = 2 // the pre-encoded /v1/combos body
	frameTable         = 3 // one table key + pre-encoded body
	frameRemove        = 4 // one table key present in base but not in the epoch
	frameCommit        = 5 // content checksum + table count, ends the stream
	frameSurface       = 6 // one surface key + canonical surface encoding
	frameSurfaceRemove = 7 // one surface key present in base but not in the epoch

	frameHeader = 8
	// maxFramePayload bounds a declared payload length so a corrupted
	// prefix cannot make a receiver buffer gigabytes as one "frame". One
	// frame carries at most one table body; 64 MiB is orders of magnitude
	// above any real epoch's largest blob.
	maxFramePayload = 1 << 26
)

// errShortFrame reports that the buffer ends mid-frame: not corruption,
// just "read more bytes" — or, at end of stream, a torn tail to discard.
var errShortFrame = errors.New("cluster: short frame")

// appendFrame appends one length+CRC framed payload to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// nextFrame decodes one frame from the front of b, returning the payload
// and bytes consumed. errShortFrame means b ends mid-frame; any other
// error is corruption.
func nextFrame(b []byte) ([]byte, int, error) {
	if len(b) < frameHeader {
		return nil, 0, errShortFrame
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 1 || n > maxFramePayload {
		return nil, 0, fmt.Errorf("cluster: implausible frame payload length %d", n)
	}
	if len(b) < frameHeader+n {
		return nil, 0, errShortFrame
	}
	payload := b[frameHeader : frameHeader+n]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(b[4:]); got != want {
		return nil, 0, fmt.Errorf("cluster: frame checksum mismatch (%08x != %08x)", got, want)
	}
	return payload, frameHeader + n, nil
}

// metaFrame is the decoded meta payload.
type metaFrame struct {
	seq   uint64 // epoch being shipped
	base  uint64 // epoch the deltas apply against; 0 for a full snapshot
	asOf  time.Time
	count int // table count in the target epoch
	etag  string
}

func encodeMeta(m metaFrame) []byte {
	p := make([]byte, 0, 2+8+8+8+4+2+len(m.etag))
	p = append(p, frameMeta, shipVersion)
	p = binary.LittleEndian.AppendUint64(p, m.seq)
	p = binary.LittleEndian.AppendUint64(p, m.base)
	p = binary.LittleEndian.AppendUint64(p, uint64(m.asOf.UnixNano()))
	p = binary.LittleEndian.AppendUint32(p, uint32(m.count))
	p = binary.LittleEndian.AppendUint16(p, uint16(len(m.etag)))
	return append(p, m.etag...)
}

func decodeMeta(p []byte) (metaFrame, error) {
	if len(p) < 2+8+8+8+4+2 || p[0] != frameMeta {
		return metaFrame{}, fmt.Errorf("cluster: malformed meta frame")
	}
	if p[1] != shipVersion {
		return metaFrame{}, fmt.Errorf("cluster: unsupported ship version %d", p[1])
	}
	m := metaFrame{
		seq:  binary.LittleEndian.Uint64(p[2:]),
		base: binary.LittleEndian.Uint64(p[10:]),
		asOf: time.Unix(0, int64(binary.LittleEndian.Uint64(p[18:]))).UTC(),
	}
	m.count = int(binary.LittleEndian.Uint32(p[26:]))
	en := int(binary.LittleEndian.Uint16(p[30:]))
	if len(p) != 32+en {
		return metaFrame{}, fmt.Errorf("cluster: malformed meta frame etag")
	}
	m.etag = string(p[32:])
	return m, nil
}

// appendKey appends a length-prefixed blob key (zone, type, prob).
func appendKey(p []byte, k service.BlobKey) []byte {
	for _, s := range []string{k.Zone, k.Type, k.Prob} {
		p = binary.LittleEndian.AppendUint16(p, uint16(len(s)))
		p = append(p, s...)
	}
	return p
}

// decodeKey reads a length-prefixed blob key, returning the remainder.
func decodeKey(p []byte) (service.BlobKey, []byte, error) {
	var parts [3]string
	for i := range parts {
		if len(p) < 2 {
			return service.BlobKey{}, nil, fmt.Errorf("cluster: truncated key")
		}
		n := int(binary.LittleEndian.Uint16(p))
		if len(p) < 2+n {
			return service.BlobKey{}, nil, fmt.Errorf("cluster: truncated key field")
		}
		parts[i] = string(p[2 : 2+n])
		p = p[2+n:]
	}
	return service.BlobKey{Zone: parts[0], Type: parts[1], Prob: parts[2]}, p, nil
}

// encodeTable renders a keyed-body frame; tag is frameTable for table
// blobs and frameSurface for canonical surface encodings (same layout).
func encodeTable(tag byte, k service.BlobKey, body []byte) []byte {
	p := make([]byte, 0, 1+6+len(k.Zone)+len(k.Type)+len(k.Prob)+4+len(body))
	p = append(p, tag)
	p = appendKey(p, k)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(body)))
	return append(p, body...)
}

func decodeTable(tag byte, p []byte) (service.BlobKey, []byte, error) {
	if len(p) < 1 || p[0] != tag {
		return service.BlobKey{}, nil, fmt.Errorf("cluster: malformed keyed-body frame (tag %d)", tag)
	}
	k, rest, err := decodeKey(p[1:])
	if err != nil {
		return service.BlobKey{}, nil, err
	}
	if len(rest) < 4 {
		return service.BlobKey{}, nil, fmt.Errorf("cluster: truncated frame body length")
	}
	n := int(binary.LittleEndian.Uint32(rest))
	if len(rest) != 4+n {
		return service.BlobKey{}, nil, fmt.Errorf("cluster: frame body length mismatch")
	}
	return k, rest[4:], nil
}

// encodeRemove renders a key-only removal frame; tag is frameRemove for
// tables and frameSurfaceRemove for surfaces.
func encodeRemove(tag byte, k service.BlobKey) []byte {
	p := make([]byte, 0, 1+6+len(k.Zone)+len(k.Type)+len(k.Prob))
	p = append(p, tag)
	return appendKey(p, k)
}

func decodeRemove(tag byte, p []byte) (service.BlobKey, error) {
	if len(p) < 1 || p[0] != tag {
		return service.BlobKey{}, fmt.Errorf("cluster: malformed remove frame (tag %d)", tag)
	}
	k, rest, err := decodeKey(p[1:])
	if err != nil {
		return service.BlobKey{}, err
	}
	if len(rest) != 0 {
		return service.BlobKey{}, fmt.Errorf("cluster: trailing bytes in remove frame")
	}
	return k, nil
}

type commitFrame struct {
	checksum uint64 // service.Epoch.Checksum of the target epoch
	count    int    // table count, re-checked against meta
}

func encodeCommit(c commitFrame) []byte {
	p := make([]byte, 0, 1+8+4)
	p = append(p, frameCommit)
	p = binary.LittleEndian.AppendUint64(p, c.checksum)
	return binary.LittleEndian.AppendUint32(p, uint32(c.count))
}

func decodeCommit(p []byte) (commitFrame, error) {
	if len(p) != 13 || p[0] != frameCommit {
		return commitFrame{}, fmt.Errorf("cluster: malformed commit frame")
	}
	return commitFrame{
		checksum: binary.LittleEndian.Uint64(p[1:]),
		count:    int(binary.LittleEndian.Uint32(p[9:])),
	}, nil
}

// epochDigest is what the shipper retains about a shipped epoch: per-blob
// content hashes, enough to compute a delta stream against it without
// holding the epoch's bodies alive.
type epochDigest struct {
	seq      uint64
	etag     string
	combos   uint64
	blobs    map[service.BlobKey]uint64
	surfaces map[service.BlobKey]uint64
}

func hash64(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b)
	return h.Sum64()
}

func digestOf(ep *service.Epoch) *epochDigest {
	d := &epochDigest{
		seq:    ep.Seq(),
		etag:   ep.ETag(),
		combos: hash64(ep.Combos()),
		blobs:  make(map[service.BlobKey]uint64, ep.NumTables()),
	}
	for _, k := range ep.Keys() {
		body, _ := ep.Blob(k)
		d.blobs[k] = hash64(body)
	}
	if n := ep.NumSurfaces(); n > 0 {
		d.surfaces = make(map[service.BlobKey]uint64, n)
		for _, k := range ep.SurfaceKeys() {
			body, _ := ep.Surface(k)
			d.surfaces[k] = hash64(body)
		}
	}
	return d
}

// encodeStream renders the complete framed stream shipping ep, as a delta
// against base (nil means full snapshot). The rendering is deterministic —
// sorted key order throughout — so a resuming receiver's (target, base,
// offset) cursor addresses a stable byte stream: the shipper re-renders
// and serves the suffix.
func encodeStream(ep *service.Epoch, base *epochDigest) []byte {
	var baseSeq uint64
	if base != nil {
		baseSeq = base.seq
	}
	out := appendFrame(nil, encodeMeta(metaFrame{
		seq:   ep.Seq(),
		base:  baseSeq,
		asOf:  ep.AsOf(),
		count: ep.NumTables(),
		etag:  ep.ETag(),
	}))
	if base == nil || base.combos != hash64(ep.Combos()) {
		out = appendFrame(out, append([]byte{frameCombos}, ep.Combos()...))
	}
	keys := ep.Keys() // sorted
	for _, k := range keys {
		body, _ := ep.Blob(k)
		if base != nil {
			if h, ok := base.blobs[k]; ok && h == hash64(body) {
				continue // unchanged since base; the replica already has it
			}
		}
		out = appendFrame(out, encodeTable(frameTable, k, body))
	}
	if base != nil {
		for _, k := range removedKeys(base.blobs, keys) {
			out = appendFrame(out, encodeRemove(frameRemove, k))
		}
	}
	surfKeys := ep.SurfaceKeys() // sorted
	for _, k := range surfKeys {
		body, _ := ep.Surface(k)
		if base != nil {
			if h, ok := base.surfaces[k]; ok && h == hash64(body) {
				continue
			}
		}
		out = appendFrame(out, encodeTable(frameSurface, k, body))
	}
	if base != nil {
		for _, k := range removedKeys(base.surfaces, surfKeys) {
			out = appendFrame(out, encodeRemove(frameSurfaceRemove, k))
		}
	}
	return appendFrame(out, encodeCommit(commitFrame{
		checksum: ep.Checksum(),
		count:    ep.NumTables(),
	}))
}

// removedKeys returns base keys absent from the target's key set, sorted.
func removedKeys(base map[service.BlobKey]uint64, targetKeys []service.BlobKey) []service.BlobKey {
	have := make(map[service.BlobKey]bool, len(targetKeys))
	for _, k := range targetKeys {
		have[k] = true
	}
	removed := make([]service.BlobKey, 0)
	for k := range base {
		if !have[k] {
			removed = append(removed, k)
		}
	}
	sortKeys(removed)
	return removed
}

// sortKeys orders blob keys the same way Epoch.Keys does.
func sortKeys(keys []service.BlobKey) {
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
}

func keyLess(a, b service.BlobKey) bool {
	if a.Zone != b.Zone {
		return a.Zone < b.Zone
	}
	if a.Type != b.Type {
		return a.Type < b.Type
	}
	return a.Prob < b.Prob
}
