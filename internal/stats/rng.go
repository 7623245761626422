package stats

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand with the variate generators the synthetic market
// needs. Every experiment in this repository threads an explicit seeded RNG
// so that results are reproducible run to run.
type RNG struct {
	*rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{Rand: rand.New(rand.NewSource(seed))}
}

// Normal draws from N(mu, sigma^2).
func (r *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*r.NormFloat64()
}

// LogNormal draws from a log-normal whose underlying normal has the given
// mu and sigma (so the median is exp(mu)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exponential draws from an exponential distribution with the given mean.
func (r *RNG) Exponential(mean float64) float64 {
	return r.ExpFloat64() * mean
}

// Poisson draws a Poisson variate with the given mean, using Knuth's
// product method for small means and a normal approximation with
// continuity correction above 64 (where the approximation error is far
// below the simulation noise floor).
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		k := int(math.Round(r.Normal(mean, math.Sqrt(mean))))
		if k < 0 {
			k = 0
		}
		return k
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// UniformRange draws uniformly from [lo, hi).
func (r *RNG) UniformRange(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// ForkSeed derives a deterministic child seed from a parent seed and a
// label: the same (seed, label) always yields the same child, and
// SplitMix64 mixing gives well-separated streams even for adjacent labels,
// so one master seed can drive many independent simulations.
func ForkSeed(seed, label int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(label)*0xD1B54A32D192ED03
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}
