package spot

import (
	"fmt"
	"sort"
)

// TypeSpec describes the nominal capability of an instance type (§2: "the
// instance type determines the nominal capabilities in terms of CPU, memory,
// and local storage") together with its fixed-price On-demand rate.
//
// On-demand prices are set per region (§4.1.2): every zone inside a region
// shares the same On-demand price. ODBase holds the us-east-1 price; other
// regions apply a fixed multiplier (see ODPrice).
type TypeSpec struct {
	Name   InstanceType
	VCPU   int
	MemGiB float64
	ODBase float64 // On-demand USD/hour in us-east-1
}

// odRegionMult reproduces the mild regional price differences of the 2016
// price sheet: us-west-1 was consistently the most expensive of the three.
var odRegionMult = map[Region]float64{
	USEast1: 1.00,
	USWest1: 1.12,
	USWest2: 1.00,
}

// catalog lists the 53 instance types available in the Spot tier at the time
// of the paper's study (§4.1: "There were 53 different instance types at the
// time of the study"). Prices approximate the 2016 us-east-1 sheet; the two
// prices the paper quotes exactly (cg1.4xlarge at $2.10 in us-east-1 and
// m1.large at $0.175 in us-west-2) are reproduced exactly.
var catalog = []TypeSpec{
	// m3 — general purpose, previous generation SSD
	{"m3.medium", 1, 3.75, 0.067},
	{"m3.large", 2, 7.5, 0.133},
	{"m3.xlarge", 4, 15, 0.266},
	{"m3.2xlarge", 8, 30, 0.532},
	// m4 — general purpose
	{"m4.large", 2, 8, 0.108},
	{"m4.xlarge", 4, 16, 0.215},
	{"m4.2xlarge", 8, 32, 0.431},
	{"m4.4xlarge", 16, 64, 0.862},
	{"m4.10xlarge", 40, 160, 2.155},
	{"m4.16xlarge", 64, 256, 3.447},
	// c3 — compute optimized, previous generation
	{"c3.large", 2, 3.75, 0.105},
	{"c3.xlarge", 4, 7.5, 0.210},
	{"c3.2xlarge", 8, 15, 0.420},
	{"c3.4xlarge", 16, 30, 0.840},
	{"c3.8xlarge", 32, 60, 1.680},
	// c4 — compute optimized
	{"c4.large", 2, 3.75, 0.100},
	{"c4.xlarge", 4, 7.5, 0.199},
	{"c4.2xlarge", 8, 15, 0.398},
	{"c4.4xlarge", 16, 30, 0.796},
	{"c4.8xlarge", 36, 60, 1.591},
	// r3 — memory optimized, previous generation
	{"r3.large", 2, 15.25, 0.166},
	{"r3.xlarge", 4, 30.5, 0.333},
	{"r3.2xlarge", 8, 61, 0.665},
	{"r3.4xlarge", 16, 122, 1.330},
	{"r3.8xlarge", 32, 244, 2.660},
	// r4 — memory optimized
	{"r4.large", 2, 15.25, 0.133},
	{"r4.xlarge", 4, 30.5, 0.266},
	{"r4.2xlarge", 8, 61, 0.532},
	{"r4.4xlarge", 16, 122, 1.064},
	{"r4.8xlarge", 32, 244, 2.128},
	{"r4.16xlarge", 64, 488, 4.256},
	// i2 — storage optimized (IOPS)
	{"i2.xlarge", 4, 30.5, 0.853},
	{"i2.2xlarge", 8, 61, 1.705},
	{"i2.4xlarge", 16, 122, 3.410},
	{"i2.8xlarge", 32, 244, 6.820},
	// d2 — storage optimized (density)
	{"d2.xlarge", 4, 30.5, 0.690},
	{"d2.2xlarge", 8, 61, 1.380},
	{"d2.4xlarge", 16, 122, 2.760},
	{"d2.8xlarge", 36, 244, 5.520},
	// x1 — extreme memory
	{"x1.16xlarge", 64, 976, 6.669},
	{"x1.32xlarge", 128, 1952, 13.338},
	// p2 — GPU compute
	{"p2.xlarge", 4, 61, 0.900},
	{"p2.8xlarge", 32, 488, 7.200},
	{"p2.16xlarge", 64, 732, 14.400},
	// g2 — GPU graphics
	{"g2.2xlarge", 8, 15, 0.650},
	{"g2.8xlarge", 32, 60, 2.600},
	// m1 — first generation general purpose (the paper backtests m1.large)
	{"m1.medium", 1, 3.75, 0.087},
	{"m1.large", 2, 7.5, 0.175},
	{"m1.xlarge", 4, 15, 0.350},
	// previous-generation specialty types named or implied by the paper
	{"cg1.4xlarge", 16, 22.5, 2.100}, // §4.1.2's pathological example
	{"cc2.8xlarge", 32, 60.5, 2.000},
	{"hi1.4xlarge", 16, 60.5, 3.100},
	{"hs1.8xlarge", 16, 117, 4.600},
}

var catalogIndex = func() map[InstanceType]TypeSpec {
	m := make(map[InstanceType]TypeSpec, len(catalog))
	for _, s := range catalog {
		if _, dup := m[s.Name]; dup {
			panic("spot: duplicate catalog entry " + s.Name)
		}
		m[s.Name] = s
	}
	return m
}()

// Types returns the names of all catalog types in a stable order.
func Types() []InstanceType {
	out := make([]InstanceType, len(catalog))
	for i, s := range catalog {
		out[i] = s.Name
	}
	return out
}

// Spec looks up the catalog entry for an instance type.
func Spec(t InstanceType) (TypeSpec, error) {
	s, ok := catalogIndex[t]
	if !ok {
		return TypeSpec{}, fmt.Errorf("spot: unknown instance type %q", t)
	}
	return s, nil
}

// ODPrice returns the On-demand price for a type in a region. It is the
// price a user pays to obtain the Amazon reliability SLA (§4.1.2).
func ODPrice(t InstanceType, r Region) (float64, error) {
	s, err := Spec(t)
	if err != nil {
		return 0, err
	}
	m, ok := odRegionMult[r]
	if !ok {
		return 0, fmt.Errorf("spot: unknown region %q", r)
	}
	return RoundToTick(s.ODBase * m), nil
}

// Available reports whether an instance type is offered in a zone. Not all
// types are available in all zones (§2, §4.1); the exclusion rules below
// model the 2016 footprint of previous-generation and specialty hardware and
// are arranged so that the visible population is exactly the paper's 452
// (zone, type) combinations.
func Available(t InstanceType, z Zone) bool {
	if _, ok := catalogIndex[t]; !ok {
		return false
	}
	r := z.Region()
	if _, ok := odRegionMult[r]; !ok {
		return false
	}
	found := false
	for _, known := range ZonesOf(r) {
		if known == z {
			found = true
			break
		}
	}
	if !found {
		return false
	}
	switch t {
	case "cg1.4xlarge", "hs1.8xlarge":
		return r == USEast1 // cluster-GPU and dense-storage HPC hardware only ever in us-east-1
	case "cc2.8xlarge", "hi1.4xlarge":
		return r != USWest1 // never deployed to the small us-west-1 region
	case "x1.32xlarge", "p2.xlarge", "p2.8xlarge", "p2.16xlarge":
		return r != USWest1 // newest large hardware missing from us-west-1 in 2016
	case "g2.8xlarge":
		return z != "us-east-1e" // capacity gaps in single zones
	case "d2.8xlarge":
		return z != "us-west-1a"
	case "i2.8xlarge":
		return z != "us-east-1d"
	}
	return true
}

// Combos enumerates every available (zone, type) combination across all
// regions, sorted by zone then type. The result has exactly 452 entries,
// matching the population backtested in §4.1.
func Combos() []Combo {
	var out []Combo
	for _, z := range AllZones() {
		for _, t := range Types() {
			if Available(t, z) {
				out = append(out, Combo{Zone: z, Type: t})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Zone != out[j].Zone {
			return out[i].Zone < out[j].Zone
		}
		return out[i].Type < out[j].Type
	})
	return out
}
