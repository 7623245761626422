package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/drafts-go/drafts/internal/hashring"
	"github.com/drafts-go/drafts/internal/telemetry"
)

// PeerStatus is what membership learns about one peer from its
// /v1/cluster/status: enough to place it on the ring (or keep it off).
type PeerStatus struct {
	Addr    string `json:"addr"`
	Role    string `json:"role,omitempty"`
	Epoch   uint64 `json:"epoch"`
	ETag    string `json:"etag,omitempty"`
	Healthy bool   `json:"healthy"`
	Err     string `json:"err,omitempty"`
}

// MembershipConfig parameterizes the status-poll gossip.
type MembershipConfig struct {
	// Self is this node's own advertised address; it is reported in
	// status but never polled.
	Self string
	// Peers are the node base URLs to poll (writers and replicas alike),
	// every pollInterval.
	Peers []string
	// HTTPClient performs the polls (default http.DefaultClient).
	HTTPClient *http.Client
	// Logger receives membership transitions. Nil discards them.
	Logger *slog.Logger
}

// Membership polls every configured peer's /v1/cluster/status and keeps a
// consistent-hash ring of the nodes currently able to serve reads: any
// writer or replica with at least one installed epoch. There is no
// failure detector beyond the poll itself — a peer that stops answering
// falls off the ring at the next poll, and consistent hashing bounds how
// many keys that moves.
type Membership struct {
	cfg MembershipConfig
	// probeTimeout bounds one peer's status probe (pollInterval; tests
	// shorten it). Probes run concurrently, so one whole poll also takes
	// at most roughly this long — a black-holed peer cannot stall ring
	// updates for the others.
	probeTimeout time.Duration

	mu    sync.Mutex
	peers map[string]PeerStatus
	ring  *hashring.Ring
}

// NewMembership validates the configuration.
func NewMembership(cfg MembershipConfig) (*Membership, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: membership needs at least one peer")
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.Logger == nil {
		cfg.Logger = telemetry.NopLogger()
	}
	return &Membership{cfg: cfg, probeTimeout: pollInterval, peers: make(map[string]PeerStatus)}, nil
}

// Run polls until ctx is cancelled. The first poll happens immediately so
// the ring is populated before the first request needs it.
func (m *Membership) Run(ctx context.Context) {
	m.Poll(ctx)
	t := time.NewTicker(pollInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.Poll(ctx)
		}
	}
}

// Poll refreshes every peer's status once and rebuilds the ring. Peers
// are probed concurrently, each bounded by probeTimeout, so a single
// unresponsive peer delays the poll by at most one timeout rather than
// stalling ring updates for everyone behind it.
func (m *Membership) Poll(ctx context.Context) {
	statuses := make([]PeerStatus, len(m.cfg.Peers))
	var wg sync.WaitGroup
	for i, addr := range m.cfg.Peers {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			statuses[i] = m.probe(ctx, addr)
		}(i, addr)
	}
	wg.Wait()
	for i, addr := range m.cfg.Peers {
		ps := statuses[i]
		m.mu.Lock()
		prev, known := m.peers[addr]
		m.peers[addr] = ps
		m.mu.Unlock()
		if !known || prev.Healthy != ps.Healthy {
			m.cfg.Logger.Info("peer status changed",
				"peer", addr, "healthy", ps.Healthy, "role", ps.Role, "err", ps.Err)
		}
	}
	m.rebuild()
}

// probe fetches one peer's /v1/cluster/status, bounded by probeTimeout
// (cfg.HTTPClient defaults to http.DefaultClient, which has none of its
// own).
func (m *Membership) probe(ctx context.Context, addr string) PeerStatus {
	ctx, cancel := context.WithTimeout(ctx, m.probeTimeout)
	defer cancel()
	ps := PeerStatus{Addr: addr}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/cluster/status", nil)
	if err != nil {
		ps.Err = err.Error()
		return ps
	}
	resp, err := m.cfg.HTTPClient.Do(req)
	if err != nil {
		ps.Err = err.Error()
		return ps
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		ps.Err = fmt.Sprintf("status %s", resp.Status)
		return ps
	}
	var st Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		ps.Err = err.Error()
		return ps
	}
	ps.Role = st.Role
	ps.Epoch = st.Epoch
	ps.ETag = st.ETag
	// A node serves reads once it has any epoch installed; routers never
	// join the ring (they hold no tables).
	ps.Healthy = st.Epoch > 0 && (st.Role == "writer" || st.Role == "replica")
	return ps
}

// rebuild reconstructs the ring from the healthy read nodes.
func (m *Membership) rebuild() {
	m.mu.Lock()
	defer m.mu.Unlock()
	members := make([]string, 0, len(m.peers))
	for addr, ps := range m.peers {
		if ps.Healthy {
			members = append(members, addr)
		}
	}
	sort.Strings(members)
	m.ring = hashring.New(members...)
}

// Ring returns the current read ring (possibly empty, never nil).
func (m *Membership) Ring() *hashring.Ring {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ring == nil {
		return hashring.New()
	}
	return m.ring
}

// Peers returns every polled peer's last status, sorted by address.
func (m *Membership) Peers() []PeerStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PeerStatus, 0, len(m.peers))
	for _, ps := range m.peers {
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
