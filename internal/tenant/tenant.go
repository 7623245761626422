// Package tenant implements the service's multi-tenancy substrate: an
// API-key registry with constant-time key lookup, a per-tenant token-bucket
// rate limiter with weighted quotas, a weighted share of the admission
// semaphore's concurrency, and bounded-cardinality per-tenant metrics.
//
// The registry is immutable after construction — Lookup is a single map
// read keyed by the SHA-256 digest of the presented key, so serving never
// takes a registry-wide lock and scales to millions of tenants. Comparing
// digests through the map (rather than comparing stored keys byte-by-byte)
// is what makes authentication constant-time in the key material: a wrong
// key costs exactly one hash and one map miss regardless of how many bytes
// it shares with any registered key.
//
// The package reads no wall clock of its own (the repo's determinism vet
// forbids it outside the allowlisted leaves); callers inject one via
// Config.Now or Registry.EnsureClock — service.New and service.NewReplica
// install time.Now automatically.
package tenant

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drafts-go/drafts/internal/telemetry"
)

// MaxKeyLen bounds API-key length. Keys at most this long are hashed
// through a fixed stack buffer, so an authenticated request's key lookup
// performs zero heap allocations; the loader rejects longer keys.
const MaxKeyLen = 64

// DefaultRPS is the base steady-state request rate (tokens per second) a
// weight-1 tenant receives when neither the registry config nor the
// tenant's spec names one.
const DefaultRPS = 50

// defaultBurstFactor sizes a tenant's bucket depth when no explicit burst
// is configured: twice the steady-state rate, so a well-behaved client can
// absorb a short spike without shedding.
const defaultBurstFactor = 2

// concurrencyOversub is the oversubscription factor for weighted
// concurrency shares: not every tenant is active at once, so each active
// tenant may hold up to oversub times its proportional share of the
// admission capacity (clamped to the full capacity) before the per-tenant
// gate sheds. It bounds how much of the shared semaphore one tenant can
// occupy without starving the pool when only a few tenants are hot.
const concurrencyOversub = 4

// Spec is one tenant's configuration entry, as parsed from the -tenants-file
// JSON array.
type Spec struct {
	// ID names the tenant; it labels metrics and error messages.
	ID string `json:"tenant"`
	// Key is the API key clients present (Authorization: Bearer <key>).
	Key string `json:"key"`
	// Account, when non-empty, selects the per-account obfuscated zone view
	// (obfuscate.ForAccount) this tenant sees; empty means the canonical
	// service view.
	Account string `json:"account,omitempty"`
	// Weight scales the tenant's quota: effective rate = base RPS x Weight,
	// and its admission-concurrency share grows proportionally. Zero means 1.
	Weight float64 `json:"weight,omitempty"`
	// RPS and Burst, when positive, override the registry-wide base rate
	// and bucket depth for this tenant (before Weight is applied to RPS).
	RPS   float64 `json:"rps,omitempty"`
	Burst float64 `json:"burst,omitempty"`
	// Revoked keeps the key in the registry but refuses it with 401 — the
	// operational state between "rotate" and "forget".
	Revoked bool `json:"revoked,omitempty"`
}

// Config parameterizes a Registry.
type Config struct {
	// RPS is the base token-bucket refill rate per weight unit (default
	// DefaultRPS). A tenant's effective rate is RPS x Weight unless its
	// spec overrides RPS directly.
	RPS float64
	// Burst is the base bucket depth (default defaultBurstFactor x the
	// tenant's effective rate).
	Burst float64
	// Now supplies the limiter's clock. Leave nil when the registry is
	// handed to service.New/NewReplica, which install time.Now; tests
	// inject a fake clock here.
	Now func() time.Time
}

// Tenant is one registered identity. All fields are immutable after
// construction except the token bucket and the in-flight counter, which
// have their own synchronization; a Tenant is safe for concurrent use.
type Tenant struct {
	// ID names the tenant (metrics label, error messages).
	ID string
	// Account is the obfuscated-zone view this tenant sees ("" = canonical).
	Account string
	// Weight is the tenant's quota weight (>= 0; defaulted to 1).
	Weight float64
	// Revoked marks a key that must be refused with 401.
	Revoked bool

	rate  float64 // tokens per second
	burst float64 // bucket depth

	reg *Registry

	mu     sync.Mutex
	tokens float64
	lastNS int64 // UnixNano of the last refill; 0 until first Allow

	inflight    atomic.Int64
	maxInflight int64 // 0 = no concurrency gate configured

	// requests/limited are this tenant's bound metric slots (possibly the
	// shared "other" slots past the cardinality cap); nil without a
	// metrics registry, and nil-safe like every telemetry instrument.
	requests *telemetry.Counter
	limited  *telemetry.Counter
}

// Limit is the tenant's steady-state request rate in requests per second —
// the value the RateLimit-Limit header reports.
func (t *Tenant) Limit() float64 { return t.rate }

// Allow consumes one token from the tenant's bucket, reporting whether the
// request is within quota and, when it is not, how long until the next
// token accrues (the Retry-After hint). With no clock installed the
// limiter admits everything — service.New installs one unconditionally, so
// this only arises for a registry used without the service layer.
func (t *Tenant) Allow() (ok bool, retryAfter time.Duration) {
	now := t.reg.clock()
	if now == nil {
		return true, 0
	}
	ns := now().UnixNano()
	t.mu.Lock()
	if t.lastNS == 0 {
		t.tokens = t.burst
		t.lastNS = ns
	} else if d := ns - t.lastNS; d > 0 {
		t.tokens += float64(d) * t.rate / float64(time.Second)
		if t.tokens > t.burst {
			t.tokens = t.burst
		}
		t.lastNS = ns
	}
	if t.tokens >= 1 {
		t.tokens--
		t.mu.Unlock()
		return true, 0
	}
	need := 1 - t.tokens
	t.mu.Unlock()
	retry := time.Duration(need / t.rate * float64(time.Second))
	if retry <= 0 {
		retry = time.Nanosecond
	}
	return false, retry
}

// AcquireSlot claims one unit of the tenant's weighted concurrency share,
// reporting false when the tenant already holds its whole share. A true
// return must be paired with ReleaseSlot. With no share configured (no
// admission control) every acquire succeeds and releases are no-ops.
func (t *Tenant) AcquireSlot() bool {
	if t.maxInflight <= 0 {
		return true
	}
	if t.inflight.Add(1) > t.maxInflight {
		t.inflight.Add(-1)
		return false
	}
	return true
}

// ReleaseSlot returns one unit claimed by a successful AcquireSlot.
func (t *Tenant) ReleaseSlot() {
	if t.maxInflight > 0 {
		t.inflight.Add(-1)
	}
}

// MarkRequest records one served request on the tenant's metric slot.
func (t *Tenant) MarkRequest() { t.requests.Inc() }

// MarkLimited records one request shed by the tenant's own quota (429).
func (t *Tenant) MarkLimited() { t.limited.Inc() }

// Registry is the immutable tenant set the service authenticates against.
type Registry struct {
	byDigest map[[32]byte]*Tenant
	tenants  []*Tenant // sorted by ID, for deterministic iteration
	accounts []string  // distinct non-empty accounts, sorted
	baseRPS  float64
	burst    float64

	// now is installed once (Config.Now or EnsureClock) before serving and
	// read through an atomic pointer so a late EnsureClock never races
	// in-flight Allow calls.
	now atomic.Pointer[func() time.Time]
}

// New builds a registry from specs. Keys must be unique, non-empty, and at
// most MaxKeyLen bytes; IDs must be unique and non-empty.
func New(cfg Config, specs []Spec) (*Registry, error) {
	baseRPS := cfg.RPS
	if baseRPS <= 0 {
		baseRPS = DefaultRPS
	}
	r := &Registry{
		byDigest: make(map[[32]byte]*Tenant, len(specs)),
		tenants:  make([]*Tenant, 0, len(specs)),
		baseRPS:  baseRPS,
		burst:    cfg.Burst,
	}
	if cfg.Now != nil {
		now := cfg.Now
		r.now.Store(&now)
	}
	ids := make(map[string]bool, len(specs))
	accounts := make(map[string]bool)
	for i, sp := range specs {
		if sp.ID == "" {
			return nil, fmt.Errorf("tenant: spec %d has no tenant id", i)
		}
		if ids[sp.ID] {
			return nil, fmt.Errorf("tenant: duplicate tenant id %q", sp.ID)
		}
		ids[sp.ID] = true
		if sp.Key == "" {
			return nil, fmt.Errorf("tenant: tenant %q has no key", sp.ID)
		}
		if len(sp.Key) > MaxKeyLen {
			return nil, fmt.Errorf("tenant: tenant %q key exceeds %d bytes", sp.ID, MaxKeyLen)
		}
		digest := sha256.Sum256([]byte(sp.Key))
		if prev, dup := r.byDigest[digest]; dup {
			return nil, fmt.Errorf("tenant: tenants %q and %q share a key", prev.ID, sp.ID)
		}
		weight := sp.Weight
		if weight <= 0 {
			weight = 1
		}
		rate := baseRPS * weight
		if sp.RPS > 0 {
			rate = sp.RPS
		}
		burst := r.burst
		if sp.Burst > 0 {
			burst = sp.Burst
		} else if burst <= 0 {
			burst = defaultBurstFactor * rate
		}
		if burst < 1 {
			burst = 1
		}
		t := &Tenant{
			ID:      sp.ID,
			Account: sp.Account,
			Weight:  weight,
			Revoked: sp.Revoked,
			rate:    rate,
			burst:   burst,
			reg:     r,
		}
		r.byDigest[digest] = t
		r.tenants = append(r.tenants, t)
		if sp.Account != "" {
			accounts[sp.Account] = true
		}
	}
	if len(r.tenants) == 0 {
		return nil, fmt.Errorf("tenant: registry has no tenants")
	}
	sortTenants(r.tenants)
	for a := range accounts {
		r.accounts = append(r.accounts, a)
	}
	sortStrings(r.accounts)
	return r, nil
}

// sortTenants orders by ID without pulling in package sort (the slice is
// built once at load time; insertion sort is fine and keeps imports lean).
func sortTenants(ts []*Tenant) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].ID < ts[j-1].ID; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// clock returns the installed clock, nil before any EnsureClock.
func (r *Registry) clock() func() time.Time {
	p := r.now.Load()
	if p == nil {
		return nil
	}
	return *p
}

// EnsureClock installs now as the limiter clock unless one is already
// installed. service.New and service.NewReplica call it with time.Now, so
// a registry built without Config.Now still rate-limits correctly.
func (r *Registry) EnsureClock(now func() time.Time) {
	if now == nil || r.now.Load() != nil {
		return
	}
	r.now.Store(&now)
}

// Lookup resolves a presented API key to its tenant, or nil. The key is
// hashed through a fixed stack buffer, so the authenticated hot path
// performs no heap allocation; oversized keys cannot be registered and
// resolve to nil without hashing.
//
//drafts:nonalloc
func (r *Registry) Lookup(key string) *Tenant {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return nil
	}
	var buf [MaxKeyLen]byte
	n := copy(buf[:], key)
	digest := sha256.Sum256(buf[:n])
	return r.byDigest[digest]
}

// Len is the number of registered tenants (revoked included).
func (r *Registry) Len() int { return len(r.tenants) }

// Accounts returns the distinct non-empty account IDs, sorted — the set
// draftsd derives obfuscation mappings for.
func (r *Registry) Accounts() []string { return r.accounts }

// SetConcurrencyShare installs each tenant's weighted share of the
// admission semaphore's capacity: ceil(capacity x oversub x weight /
// total weight), floored at 1 and clamped to the full capacity. The
// service calls it at construction when admission control is configured;
// without it AcquireSlot never refuses.
func (r *Registry) SetConcurrencyShare(capacity int64) {
	if capacity <= 0 {
		return
	}
	var totalW float64
	for _, t := range r.tenants {
		totalW += t.Weight
	}
	if totalW <= 0 {
		return
	}
	for _, t := range r.tenants {
		share := int64(math.Ceil(float64(capacity) * concurrencyOversub * t.Weight / totalW))
		if share < 1 {
			share = 1
		}
		if share > capacity {
			share = capacity
		}
		t.maxInflight = share
	}
}
