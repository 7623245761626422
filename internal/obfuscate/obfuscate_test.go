package obfuscate

import (
	"slices"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/stats"
)

var t0 = time.Date(2016, 10, 1, 0, 0, 0, 0, time.UTC)

func TestForAccountIsValidBijection(t *testing.T) {
	for _, acct := range []string{"alice", "bob", "123456789012"} {
		m := ForAccount(acct)
		if err := m.Validate(); err != nil {
			t.Errorf("account %q: %v", acct, err)
		}
		if len(m) != len(spot.AllZones()) {
			t.Errorf("account %q: mapping covers %d zones, want %d", acct, len(m), len(spot.AllZones()))
		}
	}
}

func TestForAccountDeterministic(t *testing.T) {
	a, b := ForAccount("alice"), ForAccount("alice")
	for z, p := range a {
		if b[z] != p {
			t.Fatalf("mapping for %q not deterministic", z)
		}
	}
}

func TestAccountsDiffer(t *testing.T) {
	// Different accounts should (almost always) see different permutations
	// in at least one region.
	a, b := ForAccount("alice"), ForAccount("bob")
	same := true
	for z, p := range a {
		if b[z] != p {
			same = false
			break
		}
	}
	if same {
		t.Error("two accounts received identical mappings")
	}
}

func TestPhysicalAndInverse(t *testing.T) {
	m := ForAccount("carol")
	for _, z := range spot.AllZones() {
		p, err := m.Physical(z)
		if err != nil {
			t.Fatal(err)
		}
		inv := m.Inverse()
		if back, _ := inv.Physical(p); back != z {
			t.Errorf("inverse broken: %v -> %v -> %v", z, p, back)
		}
	}
	if _, err := m.Physical("mars-1a"); err == nil {
		t.Error("unknown zone accepted")
	}
}

func TestValidateRejectsBadMappings(t *testing.T) {
	cross := Mapping{"us-east-1b": "us-west-1a"}
	if err := cross.Validate(); err == nil {
		t.Error("cross-region mapping accepted")
	}
	dup := Mapping{"us-east-1b": "us-east-1c", "us-east-1d": "us-east-1c"}
	if err := dup.Validate(); err == nil {
		t.Error("non-injective mapping accepted")
	}
}

// TestDeobfuscateRecoversPermutation is the core scenario: two accounts
// observe the same physical markets under different zone names; the
// correlation alignment must recover the true cross-mapping.
func TestDeobfuscateRecoversPermutation(t *testing.T) {
	gen := pricegen.Generator{Seed: 77}
	region := spot.USEast1
	zones := spot.ZonesOf(region)
	ty := spot.InstanceType("m4.xlarge")

	// Physical series per zone.
	physical := make(map[spot.Zone]*history.Series)
	for _, z := range zones {
		s, err := gen.Series(spot.Combo{Zone: z, Type: ty}, t0, 4000)
		if err != nil {
			t.Fatal(err)
		}
		physical[z] = s
	}

	// Account A sees zones under mapping mA; the reference account under mB.
	mA, mB := ForAccount("account-a"), ForAccount("account-b")
	noise := stats.NewRNG(9)
	view := func(m Mapping, jitter bool) map[spot.Zone]*history.Series {
		v := make(map[spot.Zone]*history.Series)
		for _, z := range zones {
			phys, _ := m.Physical(z)
			s := &history.Series{Start: physical[phys].Start, Step: physical[phys].Step, Prices: slices.Clone(physical[phys].Prices)}
			if jitter {
				// Different accounts sample the feed at slightly different
				// times; perturb a few points to prove robustness.
				for i := range s.Prices {
					if noise.Bernoulli(0.01) {
						s.Prices[i] = spot.RoundToTick(s.Prices[i] * 1.001)
					}
				}
			}
			v[z] = s
		}
		return v
	}

	got, err := Deobfuscate(view(mA, true), view(mB, false))
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: visible-in-A -> physical -> visible-in-B.
	invB := mB.Inverse()
	for _, z := range zones {
		phys, _ := mA.Physical(z)
		want := invB[phys]
		if got[z] != want {
			t.Errorf("zone %v: recovered %v, want %v", z, got[z], want)
		}
	}
}

func TestDeobfuscateErrors(t *testing.T) {
	if _, err := Deobfuscate(nil, nil); err == nil {
		t.Error("empty views accepted")
	}
	s1 := history.NewSeries(t0)
	s1.Append(1)
	s1.Append(2)
	s2 := history.NewSeries(t0)
	s2.Append(1)
	if _, err := Deobfuscate(
		map[spot.Zone]*history.Series{"us-east-1b": s1},
		map[spot.Zone]*history.Series{"us-east-1b": s2},
	); err == nil {
		t.Error("length mismatch accepted")
	}
}
