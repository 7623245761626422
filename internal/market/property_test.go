package market

import (
	"testing"

	"github.com/drafts-go/drafts/internal/spot"
)

// TestScarcerSupplyNeverCheapens: with identical randomness, shrinking the
// hidden supply can only raise (or hold) the market price at every step —
// the fundamental monotonicity of the §2.1 clearing mechanism. The two
// runs consume their RNG streams identically because capacity only enters
// the clearing, not the draws.
func TestScarcerSupplyNeverCheapens(t *testing.T) {
	combo := spot.Combo{Zone: "us-east-1b", Type: "c4.large"}
	mk := func(capacity int) *Market {
		m, err := New(combo, Config{BaseCapacity: capacity}, t0, 99)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ample := mk(900)
	scarce := mk(450)
	for i := 0; i < 3000; i++ {
		ample.Step()
		scarce.Step()
		if scarce.Price() < ample.Price() {
			t.Fatalf("step %d: scarce market cheaper (%v) than ample (%v)",
				i, scarce.Price(), ample.Price())
		}
	}
}

// TestReserveFloorHolds: whatever happens, the price never clears below
// the configured reserve.
func TestReserveFloorHolds(t *testing.T) {
	combo := spot.Combo{Zone: "us-west-2a", Type: "m1.large"}
	m, err := New(combo, Config{ReserveFrac: 0.25}, t0, 5)
	if err != nil {
		t.Fatal(err)
	}
	reserve := spot.RoundToTick(0.25 * m.od)
	for i := 0; i < 2000; i++ {
		m.Step()
		if m.Price() < reserve {
			t.Fatalf("step %d: price %v below reserve %v", i, m.Price(), reserve)
		}
	}
}

// TestSeriesMatchesAnnouncedPrices: the emitted history must equal the
// sequence of prices the market announced.
func TestSeriesMatchesAnnouncedPrices(t *testing.T) {
	m, err := New(spot.Combo{Zone: "us-east-1c", Type: "m4.large"}, Config{}, t0, 11)
	if err != nil {
		t.Fatal(err)
	}
	var announced []float64
	announced = append(announced, m.Price())
	for i := 0; i < 500; i++ {
		m.Step()
		announced = append(announced, m.Price())
	}
	s := m.Series()
	if s.Len() != len(announced) {
		t.Fatalf("series %d points, announced %d", s.Len(), len(announced))
	}
	for i, p := range announced {
		if s.Prices[i] != p {
			t.Fatalf("series[%d] = %v, announced %v", i, s.Prices[i], p)
		}
	}
	// Timestamps align with the clock.
	if !s.TimeAt(s.Len() - 1).Equal(m.Now()) {
		t.Errorf("last series point %v, clock %v", s.TimeAt(s.Len()-1), m.Now())
	}
}

// TestManyInstancesAccounting: submit a burst of instrumented instances at
// mixed bids and verify every one ends in a consistent state.
func TestManyInstancesAccounting(t *testing.T) {
	m, err := New(spot.Combo{Zone: "us-west-1a", Type: "c3.2xlarge"}, Config{}, t0, 13)
	if err != nil {
		t.Fatal(err)
	}
	var insts []*Instance
	for i := 0; i < 50; i++ {
		bid := spot.RoundToTick(m.Price() * (1.001 + float64(i)*0.05))
		if inst, err := m.Submit(bid); err == nil {
			insts = append(insts, inst)
		}
		for j := 0; j < 20; j++ {
			m.Step()
		}
	}
	if len(insts) == 0 {
		t.Fatal("no instance launched")
	}
	for _, inst := range insts {
		if !inst.Terminated {
			m.Terminate(inst)
		}
		if inst.TerminatedAt.Before(inst.Launched) {
			t.Errorf("instance %d terminated before launch", inst.ID)
		}
	}
	// IDs are unique.
	seen := map[int]bool{}
	for _, inst := range insts {
		if seen[inst.ID] {
			t.Errorf("duplicate instance ID %d", inst.ID)
		}
		seen[inst.ID] = true
	}
}
