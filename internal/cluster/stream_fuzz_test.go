package cluster

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/service"
)

// realEpochs refreshes a small writer twice, with new ticks for the first
// combo only in between, and returns both epochs: the base and the target
// of a delta stream that changes that combo's entries and keeps the rest.
func realEpochs(tb testing.TB) (*service.Epoch, *service.Epoch) {
	tb.Helper()
	const ticks = 2000
	st := history.NewStore()
	start := time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)
	gen := pricegen.Generator{Seed: 31}
	if err := gen.Populate(st, clusterCombos, start, ticks); err != nil {
		tb.Fatal(err)
	}
	srv, err := service.New(service.Config{Source: st, MaxHistory: ticks})
	if err != nil {
		tb.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		tb.Fatal(err)
	}
	e1 := srv.CurrentEpoch()
	c := clusterCombos[0]
	tail, err := gen.Continue(c, start, ticks, 12)
	if err != nil {
		tb.Fatal(err)
	}
	for i, v := range tail.Prices {
		st.Append(c, tail.TimeAt(i), v)
	}
	if err := srv.Refresh(); err != nil {
		tb.Fatal(err)
	}
	return e1, srv.CurrentEpoch()
}

// reframe rewrites every whole frame's CRC, so damage to a payload gets
// past the framing and reaches the frame decoders.
func reframe(b []byte) []byte {
	out := bytes.Clone(b)
	for off := 0; off+frameHeader <= len(out); {
		n := int(binary.LittleEndian.Uint32(out[off:]))
		if n < 1 || off+frameHeader+n > len(out) {
			break
		}
		binary.LittleEndian.PutUint32(out[off+4:], crc32.ChecksumIEEE(out[off+frameHeader:off+frameHeader+n]))
		off += frameHeader + n
	}
	return out
}

// FuzzEpochStream feeds arbitrary bytes through a replica's staging and
// assemble, as the writer's response to a full (base 0) or delta ship
// request: each input must either fail with an error or assemble an epoch
// whose checksum is its commit frame's, and none may panic. The seeds are
// a real writer's full and delta streams, a delta that also removes a key,
// and truncated and bit-flipped copies of them.
func FuzzEpochStream(f *testing.F) {
	e1, e2 := realEpochs(f)
	full, delta := encodeStream(e2, nil), encodeStream(e2, digestOf(e1))
	if entries := countEntries(f, delta); entries != 2 {
		f.Fatalf("delta stream carries %d entries, want the first combo's 2", entries)
	}
	// A base digest holding one more key makes the delta remove it.
	gone := service.BlobKey{Zone: "us-west-9z", Type: "m1.small", Prob: "0.99"}
	d := digestOf(e1)
	d.keys = append(d.keys, gone)
	d.hashes[gone] = 1
	removal := encodeStream(e2, d)
	for _, s := range []struct {
		b     []byte
		delta bool
	}{{full, false}, {delta, true}, {removal, true}} {
		f.Add(s.b, s.delta)
		for _, cut := range []int{1, frameHeader, len(s.b) / 2, len(s.b) - 1} {
			f.Add(s.b[:cut], s.delta)
		}
		for _, at := range []int{3, frameHeader + 1, len(s.b) / 3, len(s.b) / 2, len(s.b) - 3} {
			flipped := bytes.Clone(s.b)
			flipped[at] ^= 0x10
			f.Add(flipped, s.delta)
		}
	}

	srv, rc := newTestReplica(f, "http://writer.invalid", nil)
	base, err := rc.assemble(&staging{target: e1.Seq(), buf: encodeStream(e1, nil)})
	if err != nil {
		f.Fatal(err)
	}
	if err := srv.InstallEpoch(base); err != nil {
		f.Fatal(err)
	}
	for _, s := range []struct {
		b    []byte
		base uint64
	}{{full, 0}, {delta, e1.Seq()}, {removal, e1.Seq()}} {
		ep, err := rc.assemble(&staging{target: e2.Seq(), base: s.base, buf: s.b})
		if err != nil || ep.Checksum() != e2.Checksum() {
			f.Fatalf("seed stream against base %d does not rebuild the writer's epoch: %v", s.base, err)
		}
	}

	// Every input runs twice: as it came, and with its CRCs rewritten, so
	// that mutations reach the frame decoders and not only the CRC check.
	f.Fuzz(func(t *testing.T, data []byte, delta bool) {
		var baseSeq uint64
		if delta {
			baseSeq = e1.Seq()
		}
		for _, in := range [][]byte{data, reframe(data)} {
			st := rc.resumeStaging(e2.Seq(), baseSeq, 0)
			if err := rc.readStream(st, bytes.NewReader(in)); err != nil {
				t.Fatal(err)
			}
			st.buf = st.buf[:wholeFrames(st.buf)]
			if committed, err := streamCommitted(st.buf); err != nil || !committed {
				continue
			}
			ep, err := rc.assemble(st)
			if err != nil {
				continue
			}
			var last []byte
			for off := 0; off < len(st.buf); {
				p, n, _ := nextFrame(st.buf[off:])
				last, off = p, off+n
			}
			commit, err := decodeCommit(last)
			if err != nil {
				t.Fatalf("assembled a stream that does not end with a commit frame: %v", err)
			}
			if got := ep.Checksum(); got != commit.checksum {
				t.Fatalf("assembled epoch checksum %x, commit frame %x", got, commit.checksum)
			}
		}
	})
}

// countEntries counts a stream's entry frames.
func countEntries(tb testing.TB, stream []byte) int {
	tb.Helper()
	entries := 0
	for off := 0; off < len(stream); {
		p, n, err := nextFrame(stream[off:])
		if err != nil {
			tb.Fatal(err)
		}
		if p[0] == frameEntry {
			entries++
		}
		off += n
	}
	return entries
}
