package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeNode is a peer that answers /v1/cluster/status with a canned Status
// and serves a distinguishable body for everything else.
type fakeNode struct {
	status atomic.Pointer[Status]
	body   string
	code   atomic.Int64 // non-status response code; 0 = 200
	ts     *httptest.Server
}

func newFakeNode(t *testing.T, role string, epoch uint64, body string) *fakeNode {
	t.Helper()
	n := &fakeNode{body: body}
	n.status.Store(&Status{Role: role, Epoch: epoch, ETag: fmt.Sprintf("%q", body)})
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cluster/status" {
			_ = json.NewEncoder(w).Encode(n.status.Load())
			return
		}
		if c := n.code.Load(); c != 0 {
			w.WriteHeader(int(c))
			return
		}
		w.Header().Set("X-Served-By", n.body)
		fmt.Fprint(w, n.body)
	}))
	t.Cleanup(n.ts.Close)
	return n
}

func TestMembershipPollBuildsRing(t *testing.T) {
	writer := newFakeNode(t, "writer", 5, "writer-node")
	replica := newFakeNode(t, "replica", 5, "replica-node")
	empty := newFakeNode(t, "replica", 0, "no-epoch-yet") // unhealthy: nothing installed
	down := newFakeNode(t, "replica", 5, "down-node")
	down.ts.Close() // unreachable

	m, err := NewMembership(MembershipConfig{
		Peers: []string{writer.ts.URL, replica.ts.URL, empty.ts.URL, down.ts.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Poll(t.Context())

	ring := m.Ring()
	if ring.Len() != 2 {
		t.Fatalf("ring has %d members, want 2 (writer + replica): %v", ring.Len(), ring.Members())
	}
	healthy := 0
	for _, p := range m.Peers() {
		if p.Healthy {
			healthy++
		}
		if (p.Addr == writer.ts.URL) != (p.Healthy && p.Role == "writer") {
			t.Fatalf("peer %+v: only %s should be the healthy writer", p, writer.ts.URL)
		}
	}
	if healthy != 2 {
		t.Fatalf("%d healthy peers, want 2: %+v", healthy, m.Peers())
	}

	// The empty replica installs its first epoch: next poll adds it.
	empty.status.Store(&Status{Role: "replica", Epoch: 1})
	m.Poll(t.Context())
	if m.Ring().Len() != 3 {
		t.Fatalf("ring did not grow to 3: %v", m.Ring().Members())
	}
}

// TestPollBoundedByProbeTimeout pins the failure isolation: a black-holed
// peer (accepts the connection, never answers) cannot stall the poll —
// probes are bounded by probeTimeout and run concurrently, so the healthy
// peers still make it onto the ring promptly.
func TestPollBoundedByProbeTimeout(t *testing.T) {
	healthy := newFakeNode(t, "writer", 1, "ok")
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // black hole: hold the request until cancelled
	}))
	t.Cleanup(hung.Close)

	m, err := NewMembership(MembershipConfig{
		Peers: []string{hung.URL, healthy.ts.URL}, // hung peer first
	})
	if err != nil {
		t.Fatal(err)
	}
	m.probeTimeout = 50 * time.Millisecond
	start := time.Now()
	m.Poll(t.Context())
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("poll took %v with one hung peer; probes not bounded", elapsed)
	}
	if got := m.Ring().Len(); got != 1 {
		t.Fatalf("ring has %d members, want 1 (the healthy writer)", got)
	}
	for _, ps := range m.Peers() {
		if ps.Addr == hung.URL {
			if ps.Healthy || ps.Err == "" {
				t.Fatalf("hung peer reported as %+v, want unhealthy with an error", ps)
			}
		}
	}
}

func TestNewMembershipValidation(t *testing.T) {
	if _, err := NewMembership(MembershipConfig{}); err == nil {
		t.Error("empty peer list accepted")
	}
}

func newTestRouter(t *testing.T, m *Membership) *httptest.Server {
	t.Helper()
	rt, err := NewRouter(RouterConfig{Membership: m})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return ts
}

func routerGet(t *testing.T, base, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, string(body), resp.Header.Get("X-Served-By")
}

func TestRouterPlacesReadsOnRingOwner(t *testing.T) {
	a := newFakeNode(t, "writer", 3, "node-a")
	b := newFakeNode(t, "replica", 3, "node-b")
	m, err := NewMembership(MembershipConfig{Peers: []string{a.ts.URL, b.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	m.Poll(t.Context())
	ts := newTestRouter(t, m)

	// Every request for one combo lands on the ring owner — the same node
	// every time, and the node the ring itself names.
	path := "/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99"
	owner := m.Ring().Candidates(routeKey("/v1/predictions", "zone=us-east-1b&type=c4.large&probability=0.99"), 1)[0]
	for i := 0; i < 5; i++ {
		code, _, served := routerGet(t, ts.URL, path)
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		wantBody := "node-a"
		if owner == b.ts.URL {
			wantBody = "node-b"
		}
		if served != wantBody {
			t.Fatalf("request %d served by %q, want %q", i, served, wantBody)
		}
	}
}

func TestRouterFailsOverOnRetryableStatus(t *testing.T) {
	a := newFakeNode(t, "writer", 3, "node-a")
	b := newFakeNode(t, "replica", 3, "node-b")
	m, err := NewMembership(MembershipConfig{Peers: []string{a.ts.URL, b.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	m.Poll(t.Context())
	ts := newTestRouter(t, m)

	path := "/v1/predictions?zone=us-east-1b&type=c4.large&probability=0.99"
	key := routeKey("/v1/predictions", "zone=us-east-1b&type=c4.large&probability=0.99")
	owner := m.Ring().Candidates(key, 1)[0]
	ownerNode, otherNode := a, b
	if owner == b.ts.URL {
		ownerNode, otherNode = b, a
	}

	// The owner starts shedding (503): the router walks clockwise to the
	// sibling instead of surfacing the failure.
	ownerNode.code.Store(http.StatusServiceUnavailable)
	code, _, served := routerGet(t, ts.URL, path)
	if code != http.StatusOK || served != otherNode.body {
		t.Fatalf("failover: status %d served by %q, want 200 from %q", code, served, otherNode.body)
	}

	// Every candidate shedding: the last node's 503 is relayed verbatim, so
	// the client sees the real envelope, not a synthetic one.
	otherNode.code.Store(http.StatusServiceUnavailable)
	code, _, _ = routerGet(t, ts.URL, path)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("exhausted ring answered %d, want relayed 503", code)
	}

	// Every candidate unreachable at the transport: the router's own 502
	// envelope with the retryable "overloaded" code.
	a.ts.Close()
	b.ts.Close()
	code, body, _ := routerGet(t, ts.URL, path)
	if code != http.StatusBadGateway {
		t.Fatalf("dead ring answered %d, want 502", code)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error.Code != "overloaded" {
		t.Fatalf("envelope %q (err %v)", body, err)
	}
}

// TestRouterAdviseGoesToRingOwner pins advise placement: every node
// answers /v1/advise from its shipped surfaces, so the router places it
// by combo like /v1/predictions and fails over along the ring when the
// owner is down.
func TestRouterAdviseGoesToRingOwner(t *testing.T) {
	writer := newFakeNode(t, "writer", 3, "the-writer")
	replica := newFakeNode(t, "replica", 3, "a-replica")
	m, err := NewMembership(MembershipConfig{Peers: []string{replica.ts.URL, writer.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	m.Poll(t.Context())
	ts := newTestRouter(t, m)

	path := "/v1/advise?zone=us-east-1b&type=c4.large&duration=2h"
	key := routeKey("/v1/advise", "zone=us-east-1b&type=c4.large&duration=2h")
	if want := routeKey("/v1/predictions", "zone=us-east-1b&type=c4.large&probability=0.99"); key != want {
		t.Fatalf("advise key %q, want the predictions key %q", key, want)
	}
	owner := m.Ring().Candidates(key, 1)[0]
	ownerNode, otherNode := writer, replica
	if owner == replica.ts.URL {
		ownerNode, otherNode = replica, writer
	}
	for i := 0; i < 3; i++ {
		code, _, served := routerGet(t, ts.URL, path)
		if code != http.StatusOK || served != ownerNode.body {
			t.Fatalf("advise served by %q (status %d), want the ring owner %q", served, code, ownerNode.body)
		}
	}

	// The owner goes down: the router fails over to the next node.
	ownerNode.ts.Close()
	code, _, served := routerGet(t, ts.URL, path)
	if code != http.StatusOK || served != otherNode.body {
		t.Fatalf("failover: advise served by %q (status %d), want %q", served, code, otherNode.body)
	}
}

// TestRouterForwardsPostBody pins the buffered-body contract: a POST
// (/v1/fleet) crosses the forwarding hop with its body intact, and when
// the first candidate sheds, the retry replays the identical bytes from
// a fresh reader rather than a drained stream.
func TestRouterForwardsPostBody(t *testing.T) {
	const reqBody = `{"duration":"12h","probability":0.99,"count":5}`
	newEchoNode := func(role string) (*httptest.Server, *atomic.Int64, *atomic.Int64) {
		var shed, got atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/cluster/status" {
				_ = json.NewEncoder(w).Encode(&Status{Role: role, Epoch: 3, ETag: `"e"`})
				return
			}
			if shed.Load() != 0 {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			body, _ := io.ReadAll(r.Body)
			if string(body) != reqBody {
				http.Error(w, fmt.Sprintf("body %q did not survive the hop", body), http.StatusBadRequest)
				return
			}
			got.Add(1)
			fmt.Fprint(w, "echoed")
		}))
		return ts, &shed, &got
	}
	aTS, aShed, aGot := newEchoNode("writer")
	defer aTS.Close()
	bTS, _, bGot := newEchoNode("replica")
	defer bTS.Close()
	m, err := NewMembership(MembershipConfig{Peers: []string{aTS.URL, bTS.URL}})
	if err != nil {
		t.Fatal(err)
	}
	m.Poll(t.Context())
	ts := newTestRouter(t, m)

	post := func() (int, string) {
		resp, err := http.Post(ts.URL+"/v1/fleet", "application/json", strings.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	code, body := post()
	if code != http.StatusOK || body != "echoed" {
		t.Fatalf("POST through router: %d %q", code, body)
	}

	// Force a failover: whichever node owns the key sheds; the sibling must
	// still receive the complete body on the retried attempt.
	aShed.Store(1)
	aBefore, bBefore := aGot.Load(), bGot.Load()
	code, body = post()
	if code != http.StatusOK || body != "echoed" {
		t.Fatalf("POST with shedding owner: %d %q", code, body)
	}
	if aGot.Load() == aBefore && bGot.Load() == bBefore {
		t.Fatal("no node verified the replayed body")
	}
}

// TestRouterForwardsAuthHeaders pins the credential passthrough the
// tenancy layer depends on: a router in front of authenticated nodes must
// relay Authorization (and X-Api-Key) across the forwarding hop verbatim,
// or every routed request would be refused 401 by the node that owns it.
func TestRouterForwardsAuthHeaders(t *testing.T) {
	var gotAuth, gotAPIKey atomic.Pointer[string]
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cluster/status" {
			_ = json.NewEncoder(w).Encode(&Status{Role: "writer", Epoch: 3, ETag: `"e"`})
			return
		}
		a, k := r.Header.Get("Authorization"), r.Header.Get("X-Api-Key")
		gotAuth.Store(&a)
		gotAPIKey.Store(&k)
		fmt.Fprint(w, "ok")
	}))
	defer node.Close()
	m, err := NewMembership(MembershipConfig{Peers: []string{node.URL}})
	if err != nil {
		t.Fatal(err)
	}
	m.Poll(t.Context())
	ts := newTestRouter(t, m)

	req, err := http.NewRequest(http.MethodGet,
		ts.URL+"/v1/predictions?zone=us-east-1b&type=c4.large", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer ak_routed_1")
	req.Header.Set("X-Api-Key", "ak_routed_1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if a := gotAuth.Load(); a == nil || *a != "Bearer ak_routed_1" {
		t.Errorf("Authorization did not survive the hop (got %v)", a)
	}
	if k := gotAPIKey.Load(); k == nil || *k != "ak_routed_1" {
		t.Errorf("X-Api-Key did not survive the hop (got %v)", k)
	}
}

func TestRouterWithEmptyRing(t *testing.T) {
	gone := newFakeNode(t, "replica", 1, "gone")
	m, err := NewMembership(MembershipConfig{Peers: []string{gone.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gone.ts.Close()
	m.Poll(t.Context())
	ts := newTestRouter(t, m)
	code, _, _ := routerGet(t, ts.URL, "/v1/combos")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("empty ring answered %d, want 503", code)
	}
}
