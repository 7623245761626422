package service

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/spot"
)

// Advise surfaces ride the same epoch lifecycle as the pre-encoded table
// blobs: the writer materializes one per (combo, probability) at refresh,
// they are installed behind the same atomic pointer, shipped to replicas in
// their canonical wire encoding, and rebuilt there bit-identically — so a
// replica's /v1/advise and /v1/fleet answers are byte-for-byte the
// writer's. This file holds the storage entry, the canonical wire codec,
// and the cross-combo fleet index the /v1/fleet argmin runs over.

// surfaceWireVersion versions the canonical surface encoding below.
const surfaceWireVersion = 1

// surfaceEntry is one stored surface: the lookup structure plus its
// canonical encoding. The encoding — not the in-memory form — is what the
// epoch checksum covers and what ships to replicas, so writer and replica
// hash identical bytes.
type surfaceEntry struct {
	surf *core.AdviseSurface
	enc  []byte
}

// fleetEntry is one row of the per-probability fleet index: a combo and its
// surface, pre-sorted by (zone, type) so /v1/fleet scans deterministically.
type fleetEntry struct {
	zone string
	typ  string
	surf *core.AdviseSurface
}

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

// ladder derives a predictor's table and advise surface from its one
// guarantee walk; ok is false while the predictor has no price history.
func ladder(pred *core.Predictor) (core.BidTable, *surfaceEntry, bool) {
	surf, ok := pred.Surface()
	if !ok {
		return core.BidTable{}, nil, false
	}
	return surf.Table(pred.Now()), &surfaceEntry{surf: surf, enc: encodeSurface(surf)}, true
}

// buildFleetIndex groups surfaces by probability spelling and sorts each
// group by (zone, type), the deterministic scan order /v1/fleet pages over.
func buildFleetIndex(surfaces map[blobKey]*surfaceEntry) map[string][]fleetEntry {
	if len(surfaces) == 0 {
		return nil
	}
	idx := make(map[string][]fleetEntry)
	for k, se := range surfaces {
		idx[k.prob] = append(idx[k.prob], fleetEntry{zone: k.zone, typ: k.typ, surf: se.surf})
	}
	for prob, list := range idx {
		sort.Slice(list, func(i, j int) bool {
			if list[i].zone != list[j].zone {
				return list[i].zone < list[j].zone
			}
			return list[i].typ < list[j].typ
		})
		idx[prob] = list
	}
	return idx
}

// attachSurfaces installs a surface set (and its fleet index) into an
// epoch under construction, charging the canonical encodings to the
// epoch's byte gauge.
func (et *encodedTables) attachSurfaces(surfaces map[blobKey]*surfaceEntry) {
	et.surfaces = surfaces
	et.fleet = buildFleetIndex(surfaces)
	for _, se := range surfaces {
		et.bytes += len(se.enc)
	}
}

// lookupSurface resolves a (zone, type, probability-string) triple to its
// surface, canonicalizing non-canonical probability spellings on miss,
// exactly like lookupBlob.
func (et *encodedTables) lookupSurface(zone, typ, prob string) (*core.AdviseSurface, bool) {
	if se, ok := et.surfaces[blobKey{zone: zone, typ: typ, prob: prob}]; ok {
		return se.surf, true
	}
	if f, err := strconv.ParseFloat(prob, 64); err == nil {
		if se, ok := et.surfaces[blobKey{zone: zone, typ: typ, prob: probKey(f)}]; ok {
			return se.surf, true
		}
	}
	return nil, false
}

// surfaceComboString renders the canonical combo spelling used in advise
// error messages, matching spot.Combo.String.
func surfaceComboString(zone, typ string) string {
	return spot.Combo{Zone: spot.Zone(zone), Type: spot.InstanceType(typ)}.String()
}
