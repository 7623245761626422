package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"time"

	"github.com/drafts-go/drafts/internal/spot"
)

// Record is one durable price tick: the market price announced for a combo
// at a grid instant. It is the only WAL payload type; everything else the
// daemon persists (predictor state) travels in snapshots.
type Record struct {
	Combo spot.Combo
	At    time.Time
	Price float64 // USD per hour
}

// Wire framing. Every record is length-prefixed and CRC-checksummed so a
// torn write (power loss mid-append) is detectable as either a short frame
// or a checksum mismatch, never as a silently wrong price:
//
//	uint32 LE  payload length
//	uint32 LE  IEEE CRC32 of the payload
//	payload:
//	  byte      record version (1)
//	  byte      zone length, then zone bytes
//	  byte      instance-type length, then type bytes
//	  uint64 LE announcement time as Unix nanoseconds
//	  uint64 LE IEEE-754 bits of the price
const (
	recordVersion = 1
	frameHeader   = 8
	// maxRecordPayload bounds the declared payload length during scans, so
	// a corrupted length prefix cannot make the reader swallow megabytes of
	// garbage as one "record".
	maxRecordPayload = 1 << 12
)

// Validate checks that the record can be framed and replayed: non-empty
// combo fields that fit a one-byte length, and a finite positive price
// (the same invariant history.Series.Validate enforces on replay).
func (r Record) Validate() error {
	if n := len(r.Combo.Zone); n == 0 || n > 255 {
		return fmt.Errorf("store: zone %q not encodable", r.Combo.Zone)
	}
	if n := len(r.Combo.Type); n == 0 || n > 255 {
		return fmt.Errorf("store: instance type %q not encodable", r.Combo.Type)
	}
	if math.IsNaN(r.Price) || math.IsInf(r.Price, 0) || r.Price <= 0 {
		return fmt.Errorf("store: invalid price %v for %v", r.Price, r.Combo)
	}
	return nil
}

// appendFrame appends the framed encoding of r to dst, growing dst at most
// once.
func appendFrame(dst []byte, r Record) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = slices.Grow(dst, frameHeader+3+len(r.Combo.Zone)+len(r.Combo.Type)+16)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header, filled in below
	dst = append(dst, recordVersion, byte(len(r.Combo.Zone)))
	dst = append(dst, r.Combo.Zone...)
	dst = append(dst, byte(len(r.Combo.Type)))
	dst = append(dst, r.Combo.Type...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.At.UnixNano()))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Price))

	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// decodeFrame reads one framed record from the front of b, returning the
// number of bytes consumed. Any defect — short frame, implausible length,
// checksum mismatch, malformed payload — returns an error; the caller
// decides whether that means a torn tail (truncate) or corruption (fail).
func decodeFrame(b []byte) (Record, int, error) {
	if len(b) < frameHeader {
		return Record{}, 0, fmt.Errorf("store: short frame header (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 19 || n > maxRecordPayload { // minimum: version + 2 one-byte names + times
		return Record{}, 0, fmt.Errorf("store: implausible payload length %d", n)
	}
	if len(b) < frameHeader+n {
		return Record{}, 0, fmt.Errorf("store: short payload (%d of %d bytes)", len(b)-frameHeader, n)
	}
	payload := b[frameHeader : frameHeader+n]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(b[4:]); got != want {
		return Record{}, 0, fmt.Errorf("store: checksum mismatch (%08x != %08x)", got, want)
	}
	if payload[0] != recordVersion {
		return Record{}, 0, fmt.Errorf("store: unsupported record version %d", payload[0])
	}
	p := payload[1:]
	zn := int(p[0])
	if len(p) < 1+zn+1 {
		return Record{}, 0, fmt.Errorf("store: truncated zone field")
	}
	zone := string(p[1 : 1+zn])
	p = p[1+zn:]
	tn := int(p[0])
	if len(p) != 1+tn+16 {
		return Record{}, 0, fmt.Errorf("store: malformed record body")
	}
	typ := string(p[1 : 1+tn])
	p = p[1+tn:]
	at := time.Unix(0, int64(binary.LittleEndian.Uint64(p))).UTC()
	price := math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
	rec := Record{
		Combo: spot.Combo{Zone: spot.Zone(zone), Type: spot.InstanceType(typ)},
		At:    at,
		Price: price,
	}
	if err := rec.Validate(); err != nil {
		return Record{}, 0, err
	}
	return rec, frameHeader + n, nil
}

// callbackError marks an error raised by a scan callback, as opposed to a
// frame decode failure: the former must always propagate, the latter may
// legitimately mean "torn tail, truncate here" on the active segment.
type callbackError struct{ err error }

func (e callbackError) Error() string { return e.err.Error() }
func (e callbackError) Unwrap() error { return e.err }

// scanFrames walks the framed records in data, calling fn for each valid
// record, and returns the byte offset just past the last valid frame along
// with the error that stopped the scan (nil when data ends exactly on a
// frame boundary; a callbackError when fn failed). fn may be nil to scan
// for validity only.
func scanFrames(data []byte, fn func(Record) error) (int64, error) {
	off := 0
	for off < len(data) {
		rec, n, err := decodeFrame(data[off:])
		if err != nil {
			return int64(off), err
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return int64(off), callbackError{err: err}
			}
		}
		off += n
	}
	return int64(off), nil
}
