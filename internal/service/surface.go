package service

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/spot"
)

// Advise surfaces ride the same epoch lifecycle as the pre-encoded table
// blobs: the writer materializes one per (combo, probability) at refresh,
// they are installed behind the same atomic pointer, shipped to replicas in
// their canonical wire encoding, and rebuilt there bit-identically — so a
// replica's /v1/advise and /v1/fleet answers are byte-for-byte the
// writer's. This file holds the canonical wire codec, the walk that builds
// a surface, and the per-probability lists the /v1/fleet argmin runs over.

// surfaceWireVersion versions the canonical surface encoding below.
const surfaceWireVersion = 1

// encodeSurface renders the canonical wire form:
//
//	byte    version (1)
//	uint64  LE step, nanoseconds
//	uint64  LE probability, IEEE-754 bits
//	uint32  LE entry count n
//	n x (uint32 LE bid tick, uint32 LE guaranteed steps)
func encodeSurface(s *core.AdviseSurface) []byte {
	n := len(s.Bids)
	buf := make([]byte, 0, 1+8+8+4+8*n)
	buf = append(buf, surfaceWireVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Step))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Probability))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for i := 0; i < n; i++ {
		buf = binary.LittleEndian.AppendUint32(buf, s.Bids[i])
		buf = binary.LittleEndian.AppendUint32(buf, s.Guar[i])
	}
	return buf
}

// decodeSurface rebuilds a surface from its canonical wire form,
// re-running the core validations so a corrupt or adversarial payload
// cannot install a malformed lookup structure.
func decodeSurface(p []byte) (*core.AdviseSurface, error) {
	const header = 1 + 8 + 8 + 4
	if len(p) < header {
		return nil, fmt.Errorf("service: surface payload truncated (%d bytes)", len(p))
	}
	if p[0] != surfaceWireVersion {
		return nil, fmt.Errorf("service: unsupported surface version %d", p[0])
	}
	step := time.Duration(binary.LittleEndian.Uint64(p[1:9]))
	prob := math.Float64frombits(binary.LittleEndian.Uint64(p[9:17]))
	n := int(binary.LittleEndian.Uint32(p[17:21]))
	if len(p) != header+8*n {
		return nil, fmt.Errorf("service: surface payload length %d does not match %d entries", len(p), n)
	}
	bids := make([]uint32, n)
	guar := make([]uint32, n)
	for i := 0; i < n; i++ {
		off := header + 8*i
		bids[i] = binary.LittleEndian.Uint32(p[off : off+4])
		guar[i] = binary.LittleEndian.Uint32(p[off+4 : off+8])
	}
	return core.NewAdviseSurface(prob, step, bids, guar)
}

// ladder fills sl from its predictor's one guarantee walk: the advise
// surface, its canonical encoding, and the bid table read off it. It
// returns false, leaving sl unbuilt, while the predictor has no price
// history.
func (sl *slot) ladder(pred *core.Predictor) bool {
	surf, ok := pred.Surface()
	if !ok {
		return false
	}
	sl.pred, sl.surf, sl.enc = pred, surf, encodeSurface(surf)
	sl.table = surf.Table(pred.Now())
	return true
}

// fleetAt returns the entries at one probability spelling, in (zone, type)
// order.
func (et *encodedTables) fleetAt(prob string) []*entry {
	for _, l := range et.fleet {
		if l.prob == prob {
			return l.rows
		}
	}
	return nil
}

// surfaceComboString renders the canonical combo spelling used in advise
// error messages, matching spot.Combo.String.
func surfaceComboString(zone, typ string) string {
	return spot.Combo{Zone: spot.Zone(zone), Type: spot.InstanceType(typ)}.String()
}
