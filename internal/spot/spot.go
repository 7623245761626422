// Package spot defines the domain model of the Amazon EC2 Spot tier as it
// existed before the December 2017 pricing change: Regions, Availability
// Zones, instance types, markets, and the price-tick arithmetic
// used throughout the repository.
//
// All other packages build on these types. The package is deliberately free
// of behaviour beyond simple value semantics so that the market simulator,
// the forecaster, and the experiment harnesses share one vocabulary.
package spot

import (
	"math"
	"time"
)

// PriceTick is the smallest cost increment allowed by the Spot tier
// interface: one hundredth of a cent (USD 0.0001). DrAFTS adds exactly one
// tick to each price upper bound so that the bid is strictly greater than
// the quoted market price (paper, §3.2).
const PriceTick = 0.0001

// UpdatePeriod is the canonical market repricing period. The paper observes
// that Amazon recomputes and republishes Spot prices with an approximately
// 5-minute periodicity (§2.1, §2.2); the simulator and all uniform-grid
// price series use this step.
const UpdatePeriod = 5 * time.Minute

// Region names an EC2 region (an independent instantiation of the service).
type Region string

// The three regions covered by the paper's 18-month data collection (§2.2).
const (
	USEast1 Region = "us-east-1"
	USWest1 Region = "us-west-1"
	USWest2 Region = "us-west-2"
)

// Regions lists every region modelled by this repository, in the order used
// by the paper.
func Regions() []Region { return []Region{USEast1, USWest1, USWest2} }

// Zone names an Availability Zone. The region name is carried in the zone
// name (e.g. "us-east-1a" belongs to "us-east-1"), exactly as in EC2.
type Zone string

// Region extracts the region a zone belongs to by stripping the trailing
// zone letter. An empty Zone yields an empty Region.
func (z Zone) Region() Region {
	if len(z) < 2 {
		return Region(z)
	}
	return Region(z[:len(z)-1])
}

// ZonesOf returns the zones an ordinary account sees in a region. The paper
// reports that its test account saw 4 zones in us-east-1, 2 in us-west-1 and
// 3 in us-west-2 (9 in total, §4.1), even though us-east-1 physically had 5.
func ZonesOf(r Region) []Zone {
	var letters string
	switch r {
	case USEast1:
		letters = "bcde" // the paper's account did not see us-east-1a
	case USWest1:
		letters = "ab"
	case USWest2:
		letters = "abc"
	default:
		return nil
	}
	zs := make([]Zone, 0, len(letters))
	for _, l := range letters {
		zs = append(zs, Zone(string(r)+string(l)))
	}
	return zs
}

// AllZones returns every visible zone across all modelled regions (9 zones).
func AllZones() []Zone {
	var zs []Zone
	for _, r := range Regions() {
		zs = append(zs, ZonesOf(r)...)
	}
	return zs
}

// InstanceType names an EC2 instance type, e.g. "c4.large".
type InstanceType string

// Combo identifies one market: an (availability zone, instance type) pair.
// The paper treats every combo as a separate category of resource because
// users must choose both when they submit a request (§4.1).
type Combo struct {
	Zone Zone
	Type InstanceType
}

func (c Combo) String() string { return string(c.Zone) + "/" + string(c.Type) }

// PricePoint is one market price announcement.
type PricePoint struct {
	At    time.Time
	Price float64 // USD per hour
}

// Ticks converts a dollar price to an integral number of price ticks,
// rounding half away from zero. Prices in the Spot tier are always integral
// multiples of PriceTick.
func Ticks(price float64) int {
	return int(math.Round(price * 1e4))
}

// FromTicks converts a tick count back to dollars. Dividing by 1e4 (rather
// than multiplying by PriceTick) keeps round dollar amounts exact in float64.
func FromTicks(t int) float64 { return float64(t) / 1e4 }

// RoundToTick snaps a dollar price to the tick grid.
func RoundToTick(price float64) float64 { return FromTicks(Ticks(price)) }

// SamePrice reports whether two dollar prices land on the same tick.
// This is the only sanctioned way to compare prices for equality: it is
// immune to the sub-tick float noise that accumulates through price
// arithmetic, which a raw == would surface as a phantom inequality (the
// floatcmp analyzer rejects raw float equality for exactly that reason).
func SamePrice(a, b float64) bool { return Ticks(a) == Ticks(b) }

// NextTickAbove returns the smallest tick-aligned price strictly greater
// than p. DrAFTS uses this to place its bid one tick above the predicted
// price upper bound.
func NextTickAbove(p float64) float64 {
	t := Ticks(p)
	// Ticks rounds, so the rounded value may be below, equal to, or above p.
	for FromTicks(t) <= p {
		t++
	}
	return FromTicks(t)
}
