package tenant

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/telemetry"
)

// fakeClock is a manually advanced limiter clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)}
}

func testRegistry(t *testing.T, cfg Config, specs []Spec) *Registry {
	t.Helper()
	r, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLookup(t *testing.T) {
	clk := newClock()
	r := testRegistry(t, Config{Now: clk.now}, []Spec{
		{ID: "acme", Key: "ak_acme", Account: "acct-1", Weight: 4},
		{ID: "solo", Key: "ak_solo"},
		{ID: "gone", Key: "ak_gone", Revoked: true},
	})
	if tn := r.Lookup("ak_acme"); tn == nil || tn.ID != "acme" || tn.Account != "acct-1" {
		t.Fatalf("Lookup(ak_acme) = %+v", tn)
	}
	if tn := r.Lookup("ak_solo"); tn == nil || tn.Account != "" {
		t.Fatalf("Lookup(ak_solo) = %+v", tn)
	}
	if tn := r.Lookup("ak_gone"); tn == nil || !tn.Revoked {
		t.Fatal("revoked key must still resolve (the caller distinguishes revoked from unknown)")
	}
	if r.Lookup("ak_nope") != nil || r.Lookup("") != nil {
		t.Fatal("unknown/empty key resolved")
	}
	if r.Lookup(strings.Repeat("x", MaxKeyLen+1)) != nil {
		t.Fatal("oversized key resolved")
	}
	if got := r.Accounts(); len(got) != 1 || got[0] != "acct-1" {
		t.Fatalf("Accounts() = %v", got)
	}
	if len(r.Accounts()) == 0 || r.Len() != 3 {
		t.Fatalf("Accounts=%v Len=%d", r.Accounts(), r.Len())
	}
}

func TestLookupZeroAllocs(t *testing.T) {
	clk := newClock()
	r := testRegistry(t, Config{Now: clk.now}, []Spec{{ID: "a", Key: "ak_hot_tenant_key"}})
	hit := "ak_hot_tenant_key"
	miss := "ak_wrong_key"
	allocs := testing.AllocsPerRun(200, func() {
		if r.Lookup(hit) == nil {
			t.Fatal("hit missed")
		}
		if r.Lookup(miss) != nil {
			t.Fatal("miss hit")
		}
	})
	if allocs != 0 {
		t.Errorf("Lookup allocated %.1f times per run, want 0", allocs)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name  string
		specs []Spec
	}{
		{"empty", nil},
		{"no id", []Spec{{Key: "k"}}},
		{"no key", []Spec{{ID: "a"}}},
		{"dup id", []Spec{{ID: "a", Key: "k1"}, {ID: "a", Key: "k2"}}},
		{"dup key", []Spec{{ID: "a", Key: "k"}, {ID: "b", Key: "k"}}},
		{"long key", []Spec{{ID: "a", Key: strings.Repeat("x", MaxKeyLen+1)}}},
	}
	for _, tc := range cases {
		if _, err := New(Config{}, tc.specs); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := Parse([]byte(`[{"tenant":"a","key":"k","quotaa":1}]`), Config{}); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestTokenBucket(t *testing.T) {
	clk := newClock()
	r := testRegistry(t, Config{RPS: 10, Now: clk.now}, []Spec{
		{ID: "a", Key: "ka", Burst: 5},
	})
	tn := r.Lookup("ka")
	if tn.Limit() != 10 {
		t.Fatalf("Limit() = %v, want 10", tn.Limit())
	}
	// The bucket starts full: exactly Burst requests pass, then the next
	// is refused with a positive Retry-After.
	for i := 0; i < 5; i++ {
		if ok, _ := tn.Allow(); !ok {
			t.Fatalf("request %d refused within burst", i)
		}
	}
	ok, retry := tn.Allow()
	if ok {
		t.Fatal("request over burst admitted")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %v, want (0, 100ms]-ish at 10 rps", retry)
	}
	// One refill interval later exactly one token has accrued.
	clk.advance(100 * time.Millisecond)
	if ok, _ := tn.Allow(); !ok {
		t.Fatal("request refused after refill")
	}
	if ok, _ := tn.Allow(); ok {
		t.Fatal("second request admitted without refill")
	}
	// Refill caps at burst.
	clk.advance(time.Hour)
	for i := 0; i < 5; i++ {
		if ok, _ := tn.Allow(); !ok {
			t.Fatalf("request %d refused after long idle", i)
		}
	}
	if ok, _ := tn.Allow(); ok {
		t.Fatal("bucket exceeded burst after long idle")
	}
}

func TestWeightedQuota(t *testing.T) {
	clk := newClock()
	r := testRegistry(t, Config{RPS: 10, Now: clk.now}, []Spec{
		{ID: "big", Key: "kb", Weight: 4},
		{ID: "small", Key: "ks"},
	})
	if got := r.Lookup("kb").Limit(); got != 40 {
		t.Errorf("weight-4 limit = %v, want 40", got)
	}
	if got := r.Lookup("ks").Limit(); got != 10 {
		t.Errorf("weight-1 limit = %v, want 10", got)
	}
}

func TestConcurrencyShare(t *testing.T) {
	clk := newClock()
	r := testRegistry(t, Config{Now: clk.now}, []Spec{
		{ID: "a", Key: "ka"},
		{ID: "b", Key: "kb"},
	})
	tn := r.Lookup("ka")
	// Without a share every acquire succeeds.
	for i := 0; i < 100; i++ {
		if !tn.AcquireSlot() {
			t.Fatal("ungated acquire refused")
		}
	}
	r.SetConcurrencyShare(2)
	// capacity 2, oversub 4, weight 1/2 -> raw share 4, clamped to the
	// full capacity: one tenant may never out-hold the semaphore itself.
	var held int
	for tn.AcquireSlot() {
		held++
		if held > 100 {
			t.Fatal("share never binds")
		}
	}
	if held != 2 {
		t.Fatalf("held %d slots, want 2 (clamped to capacity)", held)
	}
	tn.ReleaseSlot()
	if !tn.AcquireSlot() {
		t.Fatal("released slot not reusable")
	}

	// With enough tenants the proportional share binds below the clamp:
	// capacity 8 across 8 weight-1 tenants -> ceil(8*4/8) = 4 each.
	specs := make([]Spec, 8)
	for i := range specs {
		specs[i] = Spec{ID: string(rune('a' + i)), Key: "key-" + string(rune('a'+i))}
	}
	r8 := testRegistry(t, Config{Now: clk.now}, specs)
	r8.SetConcurrencyShare(8)
	tn8 := r8.Lookup("key-a")
	held = 0
	for tn8.AcquireSlot() {
		held++
		if held > 100 {
			t.Fatal("share never binds")
		}
	}
	if held != 4 {
		t.Fatalf("held %d slots, want 4", held)
	}
}

func TestMetricsCardinality(t *testing.T) {
	clk := newClock()
	specs := []Spec{
		{ID: "a", Key: "ka"},
		{ID: "b", Key: "kb"},
		{ID: "c", Key: "kc"},
	}
	r := testRegistry(t, Config{Now: clk.now}, specs)
	reg := telemetry.NewRegistry()
	r.RegisterMetrics(reg, 2)
	// Tenants a and b get their own slots; c collapses into "other".
	r.Lookup("ka").MarkRequest()
	r.Lookup("kc").MarkRequest()
	r.Lookup("kc").MarkLimited()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`drafts_tenant_requests_total{tenant="a"} 1`,
		`drafts_tenant_requests_total{tenant="other"} 1`,
		`drafts_tenant_rate_limited_total{tenant="other"} 1`,
		`drafts_tenants 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, `tenant="c"`) {
		t.Error("over-cap tenant minted its own label")
	}
}
