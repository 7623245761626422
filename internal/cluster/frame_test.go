package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/service"
)

var frameT0 = time.Unix(1700000000, 0).UTC()

// testEpoch builds a small epoch with deterministic content derived from
// seq, suitable for exercising the wire protocol.
func testEpoch(t *testing.T, seq uint64, blobs map[service.BlobKey][]byte) *service.Epoch {
	t.Helper()
	if blobs == nil {
		blobs = map[service.BlobKey][]byte{
			{Zone: "us-east-1a", Type: "c4.large", Prob: "0.95"}:  []byte(`{"table":1}`),
			{Zone: "us-east-1a", Type: "c4.large", Prob: "0.99"}:  []byte(`{"table":2}`),
			{Zone: "us-west-2b", Type: "m3.xlarge", Prob: "0.95"}: []byte(`{"table":3}`),
		}
	}
	ep, err := service.NewEpochFull(seq, frameT0.Add(time.Duration(seq)*time.Minute),
		[]byte(`{"combos":["us-east-1a/c4.large"]}`), blobs, surfacesFor(blobs))
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// surfacesFor gives every table a one-rung surface in the canonical wire
// form, whose guarantee is the table's length, so a changed table usually
// changes its surface too.
func surfacesFor(blobs map[service.BlobKey][]byte) map[service.BlobKey][]byte {
	out := make(map[service.BlobKey][]byte, len(blobs))
	for k, body := range blobs {
		p := []byte{1} // surface wire version
		p = binary.LittleEndian.AppendUint64(p, uint64(5*time.Minute))
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(0.99))
		p = binary.LittleEndian.AppendUint32(p, 1)
		p = binary.LittleEndian.AppendUint32(p, 100)
		out[k] = binary.LittleEndian.AppendUint32(p, uint32(len(body)))
	}
	return out
}

func TestFrameRoundTrip(t *testing.T) {
	meta := metaFrame{seq: 7, base: 6, asOf: frameT0, count: 3, etag: `"abc123"`}
	got, err := decodeMeta(encodeMeta(meta))
	if err != nil {
		t.Fatal(err)
	}
	if got != meta {
		t.Fatalf("meta round trip: %+v != %+v", got, meta)
	}

	key := service.BlobKey{Zone: "us-east-1a", Type: "c4.large", Prob: "0.99"}
	body := []byte(`{"bids":[1,2,3]}`)
	enc := []byte{1, 2, 3, 4, 5}
	for _, surf := range [][]byte{enc, nil} {
		frame := encodeEntry(key, body, surf)
		k2, b2, s2, err := decodeEntry(frame)
		if err != nil {
			t.Fatal(err)
		}
		if k2 != key || !bytes.Equal(b2, body) || !bytes.Equal(s2, surf) {
			t.Fatalf("entry round trip: %+v %q %v", k2, b2, s2)
		}
		// A body length reaching past the frame is refused, not sliced.
		if _, _, _, err := decodeEntry(frame[:len(frame)-len(surf)-1]); err == nil {
			t.Error("entry frame cut inside its table body decoded")
		}
	}
	if _, _, _, err := decodeEntry(encodeRemove(key)); err == nil {
		t.Error("remove frame decoded as an entry")
	}

	k3, err := decodeRemove(encodeRemove(key))
	if err != nil {
		t.Fatal(err)
	}
	if k3 != key {
		t.Fatalf("remove round trip: %+v", k3)
	}
	if _, err := decodeRemove(append(encodeRemove(key), 0)); err == nil {
		t.Error("remove frame with trailing bytes decoded")
	}

	commit := commitFrame{checksum: 0xdeadbeefcafe, count: 3}
	c2, err := decodeCommit(encodeCommit(commit))
	if err != nil {
		t.Fatal(err)
	}
	if c2 != commit {
		t.Fatalf("commit round trip: %+v", c2)
	}
}

func TestNextFrameDetectsDamage(t *testing.T) {
	frame := appendFrame(nil, []byte{frameCombos, 'x', 'y'})

	if _, _, err := nextFrame(frame[:frameHeader-1]); !errors.Is(err, errShortFrame) {
		t.Errorf("short header: %v", err)
	}
	if _, _, err := nextFrame(frame[:len(frame)-1]); !errors.Is(err, errShortFrame) {
		t.Errorf("short payload: %v", err)
	}

	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-1] ^= 0xff
	if _, _, err := nextFrame(flipped); err == nil || errors.Is(err, errShortFrame) {
		t.Errorf("corrupt payload: %v", err)
	}

	zeroLen := append([]byte(nil), frame...)
	zeroLen[0], zeroLen[1], zeroLen[2], zeroLen[3] = 0, 0, 0, 0
	if _, _, err := nextFrame(zeroLen); err == nil || errors.Is(err, errShortFrame) {
		t.Errorf("zero length: %v", err)
	}
}

func TestEncodeStreamDeterministic(t *testing.T) {
	ep := testEpoch(t, 3, nil)
	if !bytes.Equal(encodeStream(ep, nil), encodeStream(ep, nil)) {
		t.Fatal("full snapshot stream not deterministic")
	}
	base := digestOf(testEpoch(t, 2, nil))
	if !bytes.Equal(encodeStream(ep, base), encodeStream(ep, base)) {
		t.Fatal("delta stream not deterministic")
	}
}

func TestEncodeStreamDeltaSkipsUnchanged(t *testing.T) {
	shared := map[service.BlobKey][]byte{
		{Zone: "z1", Type: "t1", Prob: "0.95"}: []byte("same"),
		{Zone: "z1", Type: "t1", Prob: "0.99"}: []byte("old"),
		{Zone: "z2", Type: "t2", Prob: "0.95"}: []byte("drop-me"),
	}
	next := map[service.BlobKey][]byte{
		{Zone: "z1", Type: "t1", Prob: "0.95"}: []byte("same"),
		{Zone: "z1", Type: "t1", Prob: "0.99"}: []byte("new"),
		{Zone: "z3", Type: "t3", Prob: "0.95"}: []byte("added"),
	}
	base := digestOf(testEpoch(t, 1, shared))
	stream := encodeStream(testEpoch(t, 2, next), base)

	var tables, removes int
	for off := 0; off < len(stream); {
		p, n, err := nextFrame(stream[off:])
		if err != nil {
			t.Fatal(err)
		}
		switch p[0] {
		case frameEntry:
			tables++
		case frameRemove:
			removes++
		}
		off += n
	}
	if tables != 2 { // the changed table and the added table, not "same"
		t.Errorf("delta carried %d tables, want 2", tables)
	}
	if removes != 1 { // z2/t2 vanished
		t.Errorf("delta carried %d removes, want 1", removes)
	}
}
