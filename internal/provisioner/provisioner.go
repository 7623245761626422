// Package provisioner implements the cost-aware provisioning logic of the
// paper's analysis platform (§4.3): a job queue per tool, plus the three
// bid-determination strategies compared in Tables 2 and 3 —
//
//   - Original: the platform's historical method, bidding 80% of the
//     On-demand price on the profile's preferred instance type;
//   - DrAFTS (1-hr): the DrAFTS bid guaranteeing one hour, with instance
//     type and availability zone chosen by smallest maximum bid (the §4.3
//     baseline when accurate profiles are unavailable);
//   - DrAFTS (profiles): the same selection with the duration taken from
//     the job profile's runtime estimate, producing a tighter bid.
package provisioner

import (
	"fmt"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/workload"
)

// Strategy selects the bid-determination method.
type Strategy int

const (
	// Original bids 80% of On-demand on the preferred candidate type.
	Original Strategy = iota
	// DrAFTS1Hr bids the DrAFTS quote for a one-hour duration.
	DrAFTS1Hr
	// DrAFTSProfiles bids the DrAFTS quote for the profile's estimated
	// runtime.
	DrAFTSProfiles
)

func (s Strategy) String() string {
	switch s {
	case Original:
		return "Original"
	case DrAFTS1Hr:
		return "DrAFTS (1-hr)"
	case DrAFTSProfiles:
		return "DrAFTS (profiles)"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Strategies lists all strategies in the Table 3 order.
func Strategies() []Strategy { return []Strategy{Original, DrAFTS1Hr, DrAFTSProfiles} }

// Quoter supplies market predictions; the cloud simulator implements it.
type Quoter interface {
	// Advise returns the DrAFTS quote for a combo and required duration.
	// Implementations return their best quote together with an error when
	// the duration cannot be guaranteed.
	Advise(c spot.Combo, d time.Duration) (core.Quote, error)
	// OnDemand returns a combo's On-demand price.
	OnDemand(c spot.Combo) (float64, error)
}

// Decision is the provisioning choice for one instance.
type Decision struct {
	Combo spot.Combo
	Bid   float64
	// Need is the duration the bid was asked to guarantee (zero for the
	// Original strategy, which has no duration notion).
	Need time.Duration
}

// minProfileNeed floors profile-based durations: guarantees below five
// minutes are meaningless on a 5-minute repricing grid.
const minProfileNeed = 5 * time.Minute

// Choose picks the combo and bid for an instance serving jobs of prof in
// the given region.
func Choose(s Strategy, q Quoter, region spot.Region, prof workload.Profile) (Decision, error) {
	switch s {
	case Original:
		return chooseOriginal(q, region, prof)
	case DrAFTS1Hr:
		return chooseDrAFTS(q, region, prof, time.Hour)
	case DrAFTSProfiles:
		need := prof.EstRuntime
		if need < minProfileNeed {
			need = minProfileNeed
		}
		return chooseDrAFTS(q, region, prof, need)
	}
	return Decision{}, fmt.Errorf("provisioner: unknown strategy %d", int(s))
}

func chooseOriginal(q Quoter, region spot.Region, prof workload.Profile) (Decision, error) {
	for _, ty := range prof.Candidates {
		for _, z := range spot.ZonesOf(region) {
			if !spot.Available(ty, z) {
				continue
			}
			combo := spot.Combo{Zone: z, Type: ty}
			od, err := q.OnDemand(combo)
			if err != nil {
				return Decision{}, err
			}
			return Decision{Combo: combo, Bid: spot.RoundToTick(0.8 * od)}, nil
		}
	}
	return Decision{}, fmt.Errorf("provisioner: no candidate of %q available in %s", prof.Tool, region)
}

func chooseDrAFTS(q Quoter, region spot.Region, prof workload.Profile, need time.Duration) (Decision, error) {
	var (
		best         Decision
		bestOK       bool
		bestEffort   Decision
		bestEffortOK bool
	)
	for _, ty := range prof.Candidates {
		for _, z := range spot.ZonesOf(region) {
			if !spot.Available(ty, z) {
				continue
			}
			combo := spot.Combo{Zone: z, Type: ty}
			quote, err := q.Advise(combo, need)
			if err == nil {
				if !bestOK || quote.Bid < best.Bid {
					best = Decision{Combo: combo, Bid: quote.Bid, Need: need}
					bestOK = true
				}
			} else if quote.Bid > 0 {
				if !bestEffortOK || quote.Bid < bestEffort.Bid {
					bestEffort = Decision{Combo: combo, Bid: quote.Bid, Need: need}
					bestEffortOK = true
				}
			}
		}
	}
	if bestOK {
		return best, nil
	}
	if bestEffortOK {
		// No combo can fully guarantee the duration; bid the least risky
		// best-effort quote rather than refusing to serve the queue.
		return bestEffort, nil
	}
	return Decision{}, fmt.Errorf("provisioner: no quotable combo for %q in %s", prof.Tool, region)
}

// Queue is the platform's per-tool FIFO job queue with revocation requeue.
type Queue struct {
	byTool map[string][]workload.Job
}

// NewQueue returns an empty queue.
func NewQueue() *Queue {
	return &Queue{byTool: make(map[string][]workload.Job)}
}

// Push appends a job to its tool's queue.
func (q *Queue) Push(j workload.Job) {
	tool := j.Profile.Tool
	q.byTool[tool] = append(q.byTool[tool], j)
}

// Requeue puts a revoked job back at the front of its tool's queue (it
// must be re-executed from scratch; delay-tolerant users accept this,
// §4.3).
func (q *Queue) Requeue(j workload.Job) {
	tool := j.Profile.Tool
	q.byTool[tool] = append([]workload.Job{j}, q.byTool[tool]...)
}

// Pop removes the oldest queued job for a tool.
func (q *Queue) Pop(tool string) (workload.Job, bool) {
	jobs := q.byTool[tool]
	if len(jobs) == 0 {
		return workload.Job{}, false
	}
	j := jobs[0]
	q.byTool[tool] = jobs[1:]
	return j, true
}

// Len returns the queued count for one tool.
func (q *Queue) Len(tool string) int { return len(q.byTool[tool]) }
