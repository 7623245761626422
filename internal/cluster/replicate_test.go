package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/service"
)

// testClock is the receiver's deterministic clock in protocol tests.
func testClock() time.Time { return frameT0 }

// blobsFor derives epoch content from seq: one stable table, one that
// changes every epoch, and one that exists only on odd epochs — so deltas
// exercise set, change, and remove paths.
func blobsFor(seq uint64) map[service.BlobKey][]byte {
	b := map[service.BlobKey][]byte{
		{Zone: "us-east-1a", Type: "c4.large", Prob: "0.95"}: []byte(`{"stable":true}`),
		{Zone: "us-east-1a", Type: "c4.large", Prob: "0.99"}: []byte(fmt.Sprintf(`{"epoch":%d}`, seq)),
	}
	if seq%2 == 1 {
		b[service.BlobKey{Zone: "us-west-2b", Type: "m3.xlarge", Prob: "0.95"}] = []byte(`{"odd":true}`)
	}
	return b
}

func assertEpochEqual(t *testing.T, got, want *service.Epoch) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("epoch missing: got %v, want %v", got, want)
	}
	if got.Seq() != want.Seq() || got.ETag() != want.ETag() {
		t.Fatalf("identity: got %d/%s, want %d/%s", got.Seq(), got.ETag(), want.Seq(), want.ETag())
	}
	if got.Checksum() != want.Checksum() {
		t.Fatalf("checksum: %x != %x", got.Checksum(), want.Checksum())
	}
	if got.NumTables() != want.NumTables() {
		t.Fatalf("tables: %d != %d", got.NumTables(), want.NumTables())
	}
	if string(got.Combos()) != string(want.Combos()) {
		t.Fatal("combo listings differ")
	}
	for _, k := range want.Keys() {
		wb, _ := want.Blob(k)
		gb, ok := got.Blob(k)
		if !ok || string(gb) != string(wb) {
			t.Fatalf("blob %+v differs", k)
		}
	}
	for _, k := range want.SurfaceKeys() {
		wb, _ := want.Surface(k)
		gb, ok := got.Surface(k)
		if !ok || string(gb) != string(wb) {
			t.Fatalf("surface %+v differs", k)
		}
	}
}

// shipProxy fronts a Shipper's handler with failure injection: truncate
// the next response body after N bytes, corrupt one byte, or partition
// entirely. It records each request's resume offset for assertions.
type shipProxy struct {
	inner http.Handler

	mu          sync.Mutex
	truncateAt  int // -1 = off; applies to the next 200 response
	corruptAt   int // -1 = off; flips a byte at this body offset
	partitioned bool
	offsets     []string // "offset" query param per request ("" when absent)
}

// testShipper is a shipper whose long-polls park at most wait.
func testShipper(wait time.Duration) *Shipper {
	sh := NewShipper(ShipperConfig{})
	sh.maxWait = wait
	return sh
}

func newShipProxy(sh *Shipper) *shipProxy {
	return &shipProxy{inner: sh.ShipHandler(), truncateAt: -1, corruptAt: -1}
}

func (p *shipProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	p.offsets = append(p.offsets, r.URL.Query().Get("offset"))
	if p.partitioned {
		p.mu.Unlock()
		// Simulate a network partition: cut the connection without a response.
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				_ = conn.Close()
			}
		}
		return
	}
	cut, corrupt := p.truncateAt, p.corruptAt
	p.truncateAt, p.corruptAt = -1, -1 // one-shot
	p.mu.Unlock()
	p.inner.ServeHTTP(&damagedRW{ResponseWriter: w, remain: cut, corrupt: corrupt}, r)
}

func (p *shipProxy) setTruncate(n int) { p.mu.Lock(); p.truncateAt = n; p.mu.Unlock() }
func (p *shipProxy) setCorrupt(n int)  { p.mu.Lock(); p.corruptAt = n; p.mu.Unlock() }
func (p *shipProxy) setPartitioned(v bool) {
	p.mu.Lock()
	p.partitioned = v
	p.mu.Unlock()
}

func (p *shipProxy) requestOffsets() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.offsets...)
}

// damagedRW truncates the body after remain bytes (-1 disables) and/or
// flips one byte at offset corrupt (-1 disables). Deliberately does NOT
// implement http.Flusher so the chunked writer takes the plain path.
type damagedRW struct {
	http.ResponseWriter
	remain  int
	corrupt int
	written int
}

func (d *damagedRW) Write(b []byte) (int, error) {
	if d.corrupt >= d.written && d.corrupt < d.written+len(b) {
		b = append([]byte(nil), b...)
		b[d.corrupt-d.written] ^= 0xff
	}
	if d.remain < 0 {
		d.written += len(b)
		return d.ResponseWriter.Write(b)
	}
	if len(b) > d.remain {
		n, _ := d.ResponseWriter.Write(b[:d.remain])
		d.remain = 0
		d.written += n
		return n, errors.New("injected connection cut")
	}
	n, err := d.ResponseWriter.Write(b)
	d.remain -= n
	d.written += n
	return n, err
}

// newTestReplica builds a replica server and a receiver pointed at url.
func newTestReplica(t testing.TB, url string, client *http.Client) (*service.Server, *Receiver) {
	t.Helper()
	srv, err := service.NewReplica(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewReceiver(ReceiverConfig{
		Writer:     url,
		Server:     srv,
		Now:        testClock,
		HTTPClient: client,
	})
	if err != nil {
		t.Fatal(err)
	}
	rc.pollInterval = 5 * time.Millisecond
	return srv, rc
}

func TestReplicateFullThenDelta(t *testing.T) {
	sh := testShipper(10 * time.Millisecond)
	ts := httptest.NewServer(newShipProxy(sh))
	defer ts.Close()
	srv, rc := newTestReplica(t, ts.URL, ts.Client())
	ctx := t.Context()

	// No epoch at the writer yet: 503, pause, no error.
	pause, err := rc.step(ctx)
	if err != nil || !pause {
		t.Fatalf("pre-epoch step: pause=%v err=%v", pause, err)
	}

	e1 := testEpoch(t, 1, blobsFor(1))
	sh.Publish(e1)
	if pause, err = rc.step(ctx); err != nil || pause {
		t.Fatalf("full snapshot step: pause=%v err=%v", pause, err)
	}
	assertEpochEqual(t, srv.CurrentEpoch(), e1)

	e2 := testEpoch(t, 2, blobsFor(2))
	sh.Publish(e2)
	if _, err = rc.step(ctx); err != nil {
		t.Fatalf("delta step: %v", err)
	}
	assertEpochEqual(t, srv.CurrentEpoch(), e2)

	stats := sh.Stats()
	if stats.Fulls != 1 || stats.Deltas != 1 {
		t.Fatalf("ship stats fulls=%d deltas=%d, want 1/1", stats.Fulls, stats.Deltas)
	}
	if st := rc.Status(); st.Installs != 2 || st.WriterEpoch != 2 {
		t.Fatalf("receiver status %+v", st)
	}

	// Caught up: the long-poll parks briefly, then 204.
	if pause, err = rc.step(ctx); err != nil || pause {
		t.Fatalf("caught-up step: pause=%v err=%v", pause, err)
	}
}

// TestKillPointsEveryFrameBoundary cuts the ship stream at every frame
// boundary (and mid-frame just past each) and proves the receiver
// discards the torn tail, resumes from a frame-aligned cursor, and
// installs a byte-identical epoch. Subtests are named by frame index and
// cut kind ("frame03/boundary" cuts before frame 3, "frame03/mid" three
// bytes into it, "end" after the last frame), so they keep their names
// when the wire format or the test epoch's content changes.
func TestKillPointsEveryFrameBoundary(t *testing.T) {
	ep := testEpoch(t, 1, blobsFor(1))
	stream := encodeStream(ep, nil)

	boundaries := []int{0}
	for off := 0; off < len(stream); {
		_, n, err := nextFrame(stream[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += n
		boundaries = append(boundaries, off)
	}

	type killPoint struct {
		name string
		cut  int
	}
	var cuts []killPoint
	for i, b := range boundaries {
		if b == len(stream) {
			cuts = append(cuts, killPoint{"end", b})
			continue
		}
		cuts = append(cuts, killPoint{fmt.Sprintf("frame%02d/boundary", i), b})
		if b+3 < len(stream) {
			// Mid-frame: tears the torn-tail path.
			cuts = append(cuts, killPoint{fmt.Sprintf("frame%02d/mid", i), b + 3})
		}
	}

	for _, kp := range cuts {
		cut := kp.cut
		t.Run(kp.name, func(t *testing.T) {
			sh := testShipper(10 * time.Millisecond)
			sh.Publish(ep)
			proxy := newShipProxy(sh)
			ts := httptest.NewServer(proxy)
			defer ts.Close()
			srv, rc := newTestReplica(t, ts.URL, ts.Client())
			ctx := t.Context()

			proxy.setTruncate(cut)
			_, err := rc.step(ctx)
			if cut < len(stream) {
				if err == nil {
					t.Fatal("truncated stream installed without error")
				}
				if srv.CurrentEpoch() != nil {
					t.Fatal("torn stream must not install")
				}
				if _, err = rc.step(ctx); err != nil {
					t.Fatalf("resume step: %v", err)
				}
			} else if err != nil {
				t.Fatalf("whole stream: %v", err)
			}
			assertEpochEqual(t, srv.CurrentEpoch(), ep)

			if cut < len(stream) {
				// The resume request's cursor must sit on the last complete
				// frame boundary at or below the cut.
				offs := proxy.requestOffsets()
				if len(offs) != 2 {
					t.Fatalf("%d requests, want 2", len(offs))
				}
				want := wholeFrames(stream[:cut])
				got, _ := strconv.Atoi(offs[1])
				if offs[1] == "" || got != want {
					t.Fatalf("resume offset %q, want %d", offs[1], want)
				}
			}
		})
	}
}

func TestCorruptFrameDiscardsStaging(t *testing.T) {
	ep := testEpoch(t, 1, blobsFor(1))
	sh := testShipper(10 * time.Millisecond)
	sh.Publish(ep)
	proxy := newShipProxy(sh)
	ts := httptest.NewServer(proxy)
	defer ts.Close()
	srv, rc := newTestReplica(t, ts.URL, ts.Client())
	ctx := t.Context()

	// Flip a byte inside the first frame's payload: CRC catches it, the
	// poisoned staging is dropped, and the next pull restarts from zero.
	proxy.setCorrupt(frameHeader + 4)
	if _, err := rc.step(ctx); err == nil {
		t.Fatal("corrupt stream accepted")
	}
	if srv.CurrentEpoch() != nil {
		t.Fatal("corrupt stream must not install")
	}
	if _, err := rc.step(ctx); err != nil {
		t.Fatalf("clean retry: %v", err)
	}
	assertEpochEqual(t, srv.CurrentEpoch(), ep)
	offs := proxy.requestOffsets()
	if offs[1] != "" && offs[1] != "0" {
		t.Fatalf("retry after corruption resumed at %q, want restart", offs[1])
	}
}

// TestPartitionMidStreamHealConverge is the chaos scenario: the replica
// is cut off mid-stream, the writer advances two more epochs during the
// partition, and on heal the replica converges to a byte-identical
// current epoch via a delta against its last installed one.
func TestPartitionMidStreamHealConverge(t *testing.T) {
	sh := testShipper(10 * time.Millisecond)
	proxy := newShipProxy(sh)
	ts := httptest.NewServer(proxy)
	defer ts.Close()
	srv, rc := newTestReplica(t, ts.URL, ts.Client())
	ctx := t.Context()

	e1 := testEpoch(t, 1, blobsFor(1))
	sh.Publish(e1)
	if _, err := rc.step(ctx); err != nil {
		t.Fatal(err)
	}

	// Epoch 2 starts shipping but the connection is cut mid-stream...
	e2 := testEpoch(t, 2, blobsFor(2))
	sh.Publish(e2)
	proxy.setTruncate(frameHeader + 2)
	if _, err := rc.step(ctx); err == nil {
		t.Fatal("truncated stream accepted")
	}

	// ...then a full partition, during which the writer advances 2 epochs.
	proxy.setPartitioned(true)
	if _, err := rc.step(ctx); err == nil {
		t.Fatal("partitioned fetch succeeded")
	}
	sh.Publish(testEpoch(t, 3, blobsFor(3)))
	e4 := testEpoch(t, 4, blobsFor(4))
	sh.Publish(e4)

	proxy.setPartitioned(false)
	if _, err := rc.step(ctx); err != nil {
		t.Fatalf("post-heal step: %v", err)
	}
	assertEpochEqual(t, srv.CurrentEpoch(), e4)
	if st := rc.Status(); st.Installs != 2 {
		t.Fatalf("installs = %d, want 2 (e1 + e4; e2/e3 skipped)", st.Installs)
	}
	if stats := sh.Stats(); stats.Deltas < 1 {
		t.Fatalf("heal did not use the delta path: %+v", stats)
	}
}

// TestEvictedBaseFallsBackToFull pins the catch-up rule: a replica whose
// installed epoch has aged out of the writer's retained digest history
// receives a full snapshot, not a delta.
func TestEvictedBaseFallsBackToFull(t *testing.T) {
	sh := testShipper(10 * time.Millisecond)
	sh.history = 1
	ts := httptest.NewServer(newShipProxy(sh))
	defer ts.Close()
	srv, rc := newTestReplica(t, ts.URL, ts.Client())
	ctx := t.Context()

	sh.Publish(testEpoch(t, 1, blobsFor(1)))
	if _, err := rc.step(ctx); err != nil {
		t.Fatal(err)
	}
	sh.Publish(testEpoch(t, 2, blobsFor(2)))
	e3 := testEpoch(t, 3, blobsFor(3))
	sh.Publish(e3) // history=1: only e3's digest survives; base e1 is gone

	if _, err := rc.step(ctx); err != nil {
		t.Fatal(err)
	}
	assertEpochEqual(t, srv.CurrentEpoch(), e3)
	if stats := sh.Stats(); stats.Fulls != 2 || stats.Deltas != 0 {
		t.Fatalf("ship stats fulls=%d deltas=%d, want 2/0", stats.Fulls, stats.Deltas)
	}
}

// TestRunLoopConverges drives the real Run goroutine (not step) against a
// live writer and waits for convergence — the integration smoke for the
// loop's pacing, staging, and shutdown paths.
func TestRunLoopConverges(t *testing.T) {
	sh := testShipper(20 * time.Millisecond)
	ts := httptest.NewServer(newShipProxy(sh))
	defer ts.Close()
	srv, rc := newTestReplica(t, ts.URL, ts.Client())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); rc.Run(ctx) }()

	e1 := testEpoch(t, 1, blobsFor(1))
	sh.Publish(e1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cur := srv.CurrentEpoch(); cur != nil && cur.Seq() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica did not converge")
		}
		time.Sleep(time.Millisecond)
	}
	assertEpochEqual(t, srv.CurrentEpoch(), e1)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

func TestInstallEpochRejectsRegression(t *testing.T) {
	srv, err := service.NewReplica(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.InstallEpoch(testEpoch(t, 2, blobsFor(2))); err != nil {
		t.Fatal(err)
	}
	if err := srv.InstallEpoch(testEpoch(t, 2, blobsFor(2))); err == nil {
		t.Error("same-seq reinstall accepted")
	}
	if err := srv.InstallEpoch(testEpoch(t, 1, blobsFor(1))); err == nil {
		t.Error("older epoch accepted")
	}
	if cur := srv.CurrentEpoch(); cur.Seq() != 2 {
		t.Fatalf("serving epoch %d after rejected installs", cur.Seq())
	}
}

// TestInstallEpochAcceptsWriterRestart covers the restart paths a bare
// sequence comparison used to reject forever: epoch numbers are
// writer-local and restart with the writer, so a seq-regressed epoch
// carrying same-or-newer content must install (the replica re-anchors to
// the new numbering), while genuinely stale deliveries still must not.
func TestInstallEpochAcceptsWriterRestart(t *testing.T) {
	combos := []byte(`{"combos":["us-east-1a/c4.large"]}`)
	srv, err := service.NewReplica(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.InstallEpoch(testEpoch(t, 5, blobsFor(5))); err != nil {
		t.Fatal(err)
	}

	// The writer restarts from its snapshot and republishes the identical
	// content under a reset counter: same asOf, same ETag, lower seq.
	renumbered, err := service.NewEpochFull(2, frameT0.Add(5*time.Minute), combos, blobsFor(5), surfacesFor(blobsFor(5)))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.InstallEpoch(renumbered); err != nil {
		t.Fatalf("renumbered same-content epoch rejected: %v", err)
	}
	if cur := srv.CurrentEpoch(); cur.Seq() != 2 {
		t.Fatalf("replica did not re-anchor: serving epoch %d, want 2", cur.Seq())
	}

	// Stale deliveries still bounce: older content, and exact duplicates.
	if err := srv.InstallEpoch(testEpoch(t, 1, blobsFor(1))); err == nil {
		t.Error("older-content epoch accepted")
	}
	dup, err := service.NewEpochFull(2, frameT0.Add(5*time.Minute), combos, blobsFor(5), surfacesFor(blobsFor(5)))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.InstallEpoch(dup); err == nil {
		t.Error("exact duplicate of the installed epoch accepted")
	}

	// A restarted writer's genuinely fresh refresh: seq 1 but newer asOf.
	fresh, err := service.NewEpochFull(1, frameT0.Add(time.Hour), combos, blobsFor(6), surfacesFor(blobsFor(6)))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.InstallEpoch(fresh); err != nil {
		t.Fatalf("restarted writer's fresh epoch rejected: %v", err)
	}
	if cur := srv.CurrentEpoch(); cur.Seq() != 1 || cur.ETag() != fresh.ETag() {
		t.Fatalf("serving %d/%s after restart install, want 1/%s", cur.Seq(), cur.ETag(), fresh.ETag())
	}
}

// TestReplicateSurvivesWriterRestart drives the full receiver path across
// a writer restart: a replica converged at epoch 5 must converge onto a
// fresh writer whose counter restarted at 1, rather than rejecting every
// shipped snapshot until the new counter overtakes the old one.
func TestReplicateSurvivesWriterRestart(t *testing.T) {
	var current atomic.Pointer[Shipper]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ShipHandler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	srv, rc := newTestReplica(t, ts.URL, ts.Client())
	ctx := t.Context()

	sh1 := testShipper(10 * time.Millisecond)
	current.Store(sh1)
	sh1.Publish(testEpoch(t, 5, blobsFor(5)))
	if _, err := rc.step(ctx); err != nil {
		t.Fatal(err)
	}
	if cur := srv.CurrentEpoch(); cur.Seq() != 5 {
		t.Fatalf("replica at epoch %d, want 5", cur.Seq())
	}

	// Writer restarts behind the same URL: empty shipper, first epoch
	// renumbered to 1 with content from a newer refresh.
	sh2 := testShipper(10 * time.Millisecond)
	fresh, err := service.NewEpochFull(1, frameT0.Add(time.Hour),
		[]byte(`{"combos":["us-east-1a/c4.large"]}`), blobsFor(6), surfacesFor(blobsFor(6)))
	if err != nil {
		t.Fatal(err)
	}
	sh2.Publish(fresh)
	current.Store(sh2)

	if pause, err := rc.step(ctx); err != nil || pause {
		t.Fatalf("post-restart step: pause=%v err=%v", pause, err)
	}
	assertEpochEqual(t, srv.CurrentEpoch(), fresh)
	if st := rc.Status(); st.WriterEpoch != 1 {
		t.Fatalf("receiver still tracks the pre-restart writer epoch: %+v", st)
	}
}
