package market

import (
	"sort"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/stats"
)

var t0 = time.Date(2015, 11, 15, 0, 0, 0, 0, time.UTC)

func newMarket(t *testing.T, seed int64) *Market {
	t.Helper()
	m, err := New(spot.Combo{Zone: "us-east-1b", Type: "c4.large"}, Config{}, t0, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewRejectsUnknownType(t *testing.T) {
	if _, err := New(spot.Combo{Zone: "us-east-1b", Type: "bogus"}, Config{}, t0, 1); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestPriceAlwaysOnTickAndAboveReserve(t *testing.T) {
	m := newMarket(t, 1)
	od := m.od
	reserve := spot.RoundToTick(0.10 * od)
	for i := 0; i < 5000; i++ {
		m.Step()
		p := m.Price()
		if p < reserve {
			t.Fatalf("step %d: price %v below reserve %v", i, p, reserve)
		}
		if spot.RoundToTick(p) != p {
			t.Fatalf("step %d: price %v off tick grid", i, p)
		}
	}
	if m.Series().Len() != 5001 {
		t.Errorf("series length %d, want 5001", m.Series().Len())
	}
	if err := m.Series().Validate(); err != nil {
		t.Errorf("emitted series invalid: %v", err)
	}
}

func TestClockAdvances(t *testing.T) {
	m := newMarket(t, 2)
	m.Step()
	m.Step()
	if want := t0.Add(2 * spot.UpdatePeriod); !m.Now().Equal(want) {
		t.Errorf("clock = %v, want %v", m.Now(), want)
	}
}

func TestDeterminism(t *testing.T) {
	a, b := newMarket(t, 3), newMarket(t, 3)
	for i := 0; i < 500; i++ {
		a.Step()
		b.Step()
		if a.Price() != b.Price() {
			t.Fatalf("step %d: %v != %v", i, a.Price(), b.Price())
		}
	}
}

func TestSubmitBelowMarketRejected(t *testing.T) {
	m := newMarket(t, 4)
	if _, err := m.Submit(m.Price()); err == nil {
		t.Error("bid equal to market price accepted at submit")
	}
	if _, err := m.Submit(m.Price() / 2); err == nil {
		t.Error("bid below market price accepted")
	}
	inst, err := m.Submit(m.Price() + 0.01)
	if err != nil {
		t.Fatalf("valid bid rejected: %v", err)
	}
	if inst.Terminated {
		t.Error("fresh instance marked terminated")
	}
}

// TestHighBidSurvives: an instance bidding many multiples of On-demand
// should survive a simulated week with overwhelming probability.
func TestHighBidSurvives(t *testing.T) {
	m := newMarket(t, 5)
	inst, err := m.Submit(20 * m.od)
	if err != nil {
		t.Fatal(err)
	}
	week := int(7 * 24 * time.Hour / spot.UpdatePeriod)
	for i := 0; i < week; i++ {
		m.Step()
	}
	if inst.Terminated {
		t.Errorf("20x-OD instance terminated at %v", inst.TerminatedAt)
	}
}

// TestLowBidIsTerminated: an instance bidding barely above the current
// price in a market with spikes should be revoked within a week, and the
// termination must be attributed to the provider.
func TestLowBidIsTerminated(t *testing.T) {
	m := newMarket(t, 6)
	inst, err := m.Submit(spot.NextTickAbove(m.Price()))
	if err != nil {
		t.Fatal(err)
	}
	week := int(7 * 24 * time.Hour / spot.UpdatePeriod)
	for i := 0; i < week && !inst.Terminated; i++ {
		m.Step()
	}
	if !inst.Terminated {
		t.Fatal("one-tick instance survived a whole week")
	}
	if !inst.ByProvider {
		t.Error("price termination not attributed to provider")
	}
	if inst.TerminatedAt.Before(inst.Launched) {
		t.Error("termination precedes launch")
	}
}

// TestTerminationConsistentWithPrice: whenever an instrumented instance is
// terminated by the provider, the market price at that step must be at or
// above its bid.
func TestTerminationConsistentWithPrice(t *testing.T) {
	m := newMarket(t, 7)
	rng := stats.NewRNG(1)
	type track struct {
		inst *Instance
	}
	var open []track
	for i := 0; i < 4000; i++ {
		m.Step()
		if rng.Bernoulli(0.05) {
			bid := spot.RoundToTick(m.Price() * rng.UniformRange(1.01, 1.5))
			if inst, err := m.Submit(bid); err == nil {
				open = append(open, track{inst})
			}
		}
		keep := open[:0]
		for _, tr := range open {
			if tr.inst.Terminated {
				if m.Price() < tr.inst.Bid && !tr.inst.TerminatedAt.Equal(m.Now()) {
					t.Fatalf("instance bid %v terminated with price %v at wrong time", tr.inst.Bid, m.Price())
				}
				continue
			}
			// Still running: the price must not exceed the bid.
			if m.Price() > tr.inst.Bid {
				t.Fatalf("running instance bid %v below market price %v", tr.inst.Bid, m.Price())
			}
			keep = append(keep, tr)
		}
		open = keep
	}
}

func TestUserTerminate(t *testing.T) {
	m := newMarket(t, 8)
	inst, err := m.Submit(m.od)
	if err != nil {
		t.Fatal(err)
	}
	m.Step()
	m.Terminate(inst)
	if !inst.Terminated || inst.ByProvider {
		t.Errorf("user termination misrecorded: %+v", inst)
	}
	at := inst.TerminatedAt
	m.Terminate(inst) // idempotent
	if !inst.TerminatedAt.Equal(at) {
		t.Error("double terminate changed timestamp")
	}
}

// TestSpikesOccur: the shock mechanism must produce episodes where the
// price climbs well above its median — the behaviour DrAFTS exists to
// survive.
func TestSpikesOccur(t *testing.T) {
	m := newMarket(t, 9)
	month := int(30 * 24 * time.Hour / spot.UpdatePeriod)
	for i := 0; i < month; i++ {
		m.Step()
	}
	prices := m.Series().Prices
	sorted := append([]float64(nil), prices...)
	sort.Float64s(sorted)
	med := sorted[(len(sorted)-1)/2]
	max := stats.Describe(prices).Max
	if max < 2*med {
		t.Errorf("no spikes: max %v vs median %v", max, med)
	}
}

// TestDiurnalDemand: afternoon prices should exceed night prices on
// average thanks to the demand cycle shrinking Spot capacity.
func TestDiurnalDemand(t *testing.T) {
	m := newMarket(t, 10)
	month := int(30 * 24 * time.Hour / spot.UpdatePeriod)
	var day, night []float64
	for i := 0; i < month; i++ {
		m.Step()
		switch m.Now().Hour() {
		case 14, 15, 16:
			day = append(day, m.Price())
		case 2, 3, 4:
			night = append(night, m.Price())
		}
	}
	if stats.Describe(day).Mean <= stats.Describe(night).Mean {
		t.Error("no diurnal price pattern")
	}
}

func TestExchange(t *testing.T) {
	combos := []spot.Combo{
		{Zone: "us-east-1b", Type: "c4.large"},
		{Zone: "us-east-1c", Type: "c4.large"},
		{Zone: "us-east-1d", Type: "c4.large"},
	}
	ex, err := NewExchange(combos, Config{}, t0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Markets) != 3 {
		t.Fatalf("%d markets", len(ex.Markets))
	}
	ex.Step()
	ex.Step()
	want := t0.Add(2 * spot.UpdatePeriod)
	if !ex.Now().Equal(want) {
		t.Errorf("exchange clock %v, want %v", ex.Now(), want)
	}
	// Different zones must not emit identical series (independent seeds).
	a := ex.Markets[0].Series().Prices
	b := ex.Markets[1].Series().Prices
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	// With only 3 points this could coincide; step more to be sure.
	for i := 0; i < 200 && same; i++ {
		ex.Step()
		a, b = ex.Markets[0].Series().Prices, ex.Markets[1].Series().Prices
		same = a[len(a)-1] == b[len(b)-1]
	}
	if same {
		t.Error("markets with different seeds move in lockstep")
	}
	if (&Exchange{}).Now() != (time.Time{}) {
		t.Error("empty exchange clock not zero")
	}
	if _, err := NewExchange([]spot.Combo{{Zone: "z", Type: "t"}}, Config{}, t0, 1); err == nil {
		t.Error("bad combo accepted")
	}
}
