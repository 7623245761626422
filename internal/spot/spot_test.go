package spot

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZoneRegion(t *testing.T) {
	cases := []struct {
		z    Zone
		want Region
	}{
		{"us-east-1a", USEast1},
		{"us-east-1e", USEast1},
		{"us-west-1b", USWest1},
		{"us-west-2c", USWest2},
	}
	for _, c := range cases {
		if got := c.z.Region(); got != c.want {
			t.Errorf("Zone(%q).Region() = %q, want %q", c.z, got, c.want)
		}
	}
}

func TestZonesOfCounts(t *testing.T) {
	// The paper's test account saw 4 + 2 + 3 = 9 zones (§4.1, footnote 5).
	counts := map[Region]int{USEast1: 4, USWest1: 2, USWest2: 3}
	total := 0
	for r, want := range counts {
		zs := ZonesOf(r)
		if len(zs) != want {
			t.Errorf("ZonesOf(%s) has %d zones, want %d", r, len(zs), want)
		}
		for _, z := range zs {
			if z.Region() != r {
				t.Errorf("zone %q claims region %q, want %q", z, z.Region(), r)
			}
		}
		total += len(zs)
	}
	if got := len(AllZones()); got != total || got != 9 {
		t.Errorf("AllZones() has %d zones, want 9", got)
	}
}

func TestZonesOfUnknownRegion(t *testing.T) {
	if zs := ZonesOf("eu-west-1"); zs != nil {
		t.Errorf("ZonesOf(unknown) = %v, want nil", zs)
	}
}

func TestCatalogHas53Types(t *testing.T) {
	if got := len(Types()); got != 53 {
		t.Fatalf("catalog has %d types, want 53 (paper §4.1)", got)
	}
}

func TestCombosCount(t *testing.T) {
	combos := Combos()
	if len(combos) != 452 {
		t.Fatalf("Combos() = %d combinations, want 452 (paper §4.1)", len(combos))
	}
	seen := make(map[Combo]bool, len(combos))
	for _, c := range combos {
		if seen[c] {
			t.Fatalf("duplicate combo %v", c)
		}
		seen[c] = true
		if !Available(c.Type, c.Zone) {
			t.Fatalf("combo %v listed but not Available", c)
		}
	}
}

func TestCombosSorted(t *testing.T) {
	combos := Combos()
	for i := 1; i < len(combos); i++ {
		a, b := combos[i-1], combos[i]
		if a.Zone > b.Zone || (a.Zone == b.Zone && a.Type >= b.Type) {
			t.Fatalf("combos not sorted at %d: %v before %v", i, a, b)
		}
	}
}

func TestPaperQuotedPrices(t *testing.T) {
	// §4.1.2: cg1.4xlarge in us-east-1 had an On-demand price of $2.10.
	p, err := ODPrice("cg1.4xlarge", USEast1)
	if err != nil {
		t.Fatal(err)
	}
	if p != 2.1 {
		t.Errorf("cg1.4xlarge us-east-1 OD = %v, want 2.1", p)
	}
	// §4.4: m1.large in us-west-2 had an On-demand price of $0.175.
	p, err = ODPrice("m1.large", USWest2)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0.175 {
		t.Errorf("m1.large us-west-2 OD = %v, want 0.175", p)
	}
}

func TestODPriceErrors(t *testing.T) {
	if _, err := ODPrice("z9.mega", USEast1); err == nil {
		t.Error("expected error for unknown type")
	}
	if _, err := ODPrice("m1.large", "mars-north-1"); err == nil {
		t.Error("expected error for unknown region")
	}
}

func TestAvailableRules(t *testing.T) {
	cases := []struct {
		t    InstanceType
		z    Zone
		want bool
	}{
		{"cg1.4xlarge", "us-east-1c", true},
		{"cg1.4xlarge", "us-west-2a", false},
		{"p2.xlarge", "us-west-1a", false},
		{"p2.xlarge", "us-west-2b", true},
		{"g2.8xlarge", "us-east-1e", false},
		{"g2.8xlarge", "us-east-1b", true},
		{"m1.large", "us-west-2c", true},
		{"m1.large", "us-east-1a", false}, // us-east-1a is not visible to the account
		{"nope.large", "us-east-1b", false},
		{"m1.large", "eu-west-1a", false},
	}
	for _, c := range cases {
		if got := Available(c.t, c.z); got != c.want {
			t.Errorf("Available(%s, %s) = %v, want %v", c.t, c.z, got, c.want)
		}
	}
}

func TestTickRoundTrip(t *testing.T) {
	f := func(n uint16) bool {
		price := FromTicks(int(n))
		return Ticks(price) == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNextTickAbove(t *testing.T) {
	cases := []struct {
		in   float64
		want float64
	}{
		{0.1000, 0.1001},
		{0.10004, 0.1001},
		{0.10006, 0.1001},
		{0, 0.0001},
	}
	for _, c := range cases {
		got := NextTickAbove(c.in)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NextTickAbove(%v) = %v, want %v", c.in, got, c.want)
		}
		if got <= c.in {
			t.Errorf("NextTickAbove(%v) = %v is not strictly above input", c.in, got)
		}
	}
}

func TestNextTickAboveProperty(t *testing.T) {
	f := func(n uint16) bool {
		p := FromTicks(int(n))
		up := NextTickAbove(p)
		return up > p && Ticks(up) == int(n)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundToTick(t *testing.T) {
	if got := RoundToTick(0.123456); got != 0.1235 {
		t.Errorf("RoundToTick(0.123456) = %v, want 0.1235", got)
	}
}

func TestODRegionalOrdering(t *testing.T) {
	// us-west-1 carried a premium over the other two regions.
	for _, ty := range Types() {
		e, _ := ODPrice(ty, USEast1)
		w1, _ := ODPrice(ty, USWest1)
		w2, _ := ODPrice(ty, USWest2)
		if !(w1 > e) {
			t.Errorf("%s: us-west-1 OD %v not above us-east-1 %v", ty, w1, e)
		}
		if e != w2 {
			t.Errorf("%s: us-east-1 OD %v != us-west-2 OD %v", ty, e, w2)
		}
	}
}
