package cluster

import (
	"bytes"
	"errors"
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
		[]byte(`{"combos":["us-east-1a/c4.large"]}`), blobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ep
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
	k2, b2, err := decodeTable(frameTable, encodeTable(frameTable, key, body))
	if err != nil {
		t.Fatal(err)
	}
	if k2 != key || !bytes.Equal(b2, body) {
		t.Fatalf("table round trip: %+v %q", k2, b2)
	}

	k3, err := decodeRemove(frameRemove, encodeRemove(frameRemove, key))
	if err != nil {
		t.Fatal(err)
	}
	if k3 != key {
		t.Fatalf("remove round trip: %+v", k3)
	}

	ks, bs, err := decodeTable(frameSurface, encodeTable(frameSurface, key, body))
	if err != nil {
		t.Fatal(err)
	}
	if ks != key || !bytes.Equal(bs, body) {
		t.Fatalf("surface round trip: %+v %q", ks, bs)
	}

	kr, err := decodeRemove(frameSurfaceRemove, encodeRemove(frameSurfaceRemove, key))
	if err != nil {
		t.Fatal(err)
	}
	if kr != key {
		t.Fatalf("surface remove round trip: %+v", kr)
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
		case frameTable:
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
