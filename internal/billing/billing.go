// Package billing implements the Spot tier's charging rules (§2.1 of the
// paper):
//
//   - instances are charged by the hour, at the market price in force at
//     the beginning of each hour of execution, for that hour's duration;
//   - when the *user* terminates an instance, the final partial hour is
//     rounded up and charged in full;
//   - when the *provider* terminates an instance because the market price
//     reached the bid, the final partial hour is not charged (the
//     historical EC2 interruption policy);
//   - the worst-case financial risk of a request is the maximum bid times
//     the number of chargeable hours, since the user "risks paying up to
//     the maximum bid price for each hour the instance executes".
package billing

import (
	"fmt"
	"math"
	"time"

	"github.com/drafts-go/drafts/internal/history"
)

// Reason says who ended an instance.
type Reason int

const (
	// UserTerminated: the user shut the instance down; the final partial
	// hour is rounded up.
	UserTerminated Reason = iota
	// ProviderTerminated: the market price reached the bid and the
	// provider revoked the instance; the final partial hour is free.
	ProviderTerminated
)

// ChargeableHours returns how many instance-hours a run of the given
// duration is billed for under the given termination reason.
func ChargeableHours(d time.Duration, reason Reason) int {
	if d <= 0 {
		return 0
	}
	hours := d.Hours()
	if reason == UserTerminated {
		return int(math.Ceil(hours))
	}
	return int(math.Floor(hours))
}

// Cost returns the actual charge for an instance that ran on the market
// described by s from start to end: each chargeable hour is billed at the
// market price in force at that hour's beginning.
func Cost(s *history.Series, start, end time.Time, reason Reason) (float64, error) {
	if end.Before(start) {
		return 0, fmt.Errorf("billing: end %v before start %v", end, start)
	}
	n := ChargeableHours(end.Sub(start), reason)
	total := 0.0
	for h := 0; h < n; h++ {
		at := start.Add(time.Duration(h) * time.Hour)
		p, ok := s.At(at)
		if !ok {
			return 0, fmt.Errorf("billing: no market price at hour start %v", at)
		}
		total += p
	}
	return total, nil
}

// Risk returns the worst-case charge for the run: the maximum bid for
// every chargeable hour. This is the quantity DrAFTS minimizes subject to
// the durability constraint.
func Risk(bid float64, start, end time.Time, reason Reason) float64 {
	return bid * float64(ChargeableHours(end.Sub(start), reason))
}

// OnDemandCost returns what the same run would have cost at a fixed
// On-demand hourly price (always user-terminated semantics: On-demand
// instances are only ever stopped by their owner).
func OnDemandCost(odPrice float64, d time.Duration) float64 {
	return odPrice * float64(ChargeableHours(d, UserTerminated))
}
