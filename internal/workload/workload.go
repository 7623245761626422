// Package workload models the job stream of the paper's application-driven
// experiments (§4.3): a production analysis platform (Globus Galaxies)
// decomposes user workflows into jobs, each carrying a computational
// profile — the instance type it needs and an estimated execution time.
//
// The original recorded trace (8452 production jobs, of which the first
// 1000 were replayed) is not available, so Galaxies synthesizes a trace
// with the same statistical shape: bursty workflow-batch arrivals across a
// 3h20m submission window, heavy-tailed per-tool runtimes with only a few
// jobs exceeding one hour, and per-tool profiles whose runtime estimates
// are calibrated near each tool's 90th percentile (profiles are
// approximate, not exact — §4.3).
package workload

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/stats"
)

// Profile is a tool's computational profile: which instance types can run
// it (preferred first) and how long it is expected to take.
type Profile struct {
	Tool string
	// Candidates are suitable instance types, preferred first. The
	// platform's original provisioner always used the first; DrAFTS-based
	// selection may pick any (§4.3 "using DrAFTS to select instance type
	// and AZ for each job").
	Candidates []spot.InstanceType
	// EstRuntime is the profile service's runtime estimate, used by the
	// profile-based DrAFTS bid.
	EstRuntime time.Duration
}

// Job is one unit of work.
type Job struct {
	ID      int
	Profile Profile
	// Submit is the submission offset relative to the trace start — the
	// paper's replay transform ("we transformed the submission time of
	// each job into a relative submission time").
	Submit time.Duration
	// Runtime is the job's actual execution time (unknown to the
	// provisioner until the job finishes).
	Runtime time.Duration
}

// Trace is a replayable job stream, sorted by submission offset.
type Trace struct {
	Jobs []Job
}

// TotalWork returns the summed runtimes.
func (t Trace) TotalWork() time.Duration {
	var sum time.Duration
	for _, j := range t.Jobs {
		sum += j.Runtime
	}
	return sum
}

// Validate checks trace invariants.
func (t Trace) Validate() error {
	for i, j := range t.Jobs {
		if j.Runtime <= 0 {
			return fmt.Errorf("workload: job %d has runtime %v", j.ID, j.Runtime)
		}
		if j.Submit < 0 {
			return fmt.Errorf("workload: job %d has negative submit offset", j.ID)
		}
		if i > 0 && j.Submit < t.Jobs[i-1].Submit {
			return fmt.Errorf("workload: jobs out of submission order at %d", i)
		}
		if len(j.Profile.Candidates) == 0 {
			return fmt.Errorf("workload: job %d has no candidate instance types", j.ID)
		}
	}
	return nil
}

// tool is a generator archetype for one analysis application.
type tool struct {
	name       string
	candidates []spot.InstanceType
	medianMin  float64 // median runtime, minutes
	sigma      float64 // lognormal shape
	weight     int     // relative frequency in workflows
}

// tools is the genomics-flavoured application catalog. Runtime medians are
// minutes; gatk's wide tail supplies the paper's "few jobs that last
// longer than one hour".
var tools = []tool{
	{"fastqc", []spot.InstanceType{"m3.medium", "m3.large", "m4.large"}, 4, 0.45, 20},
	{"trimmomatic", []spot.InstanceType{"m3.large", "m4.large", "c4.large"}, 5, 0.4, 14},
	{"bwa-mem", []spot.InstanceType{"c3.4xlarge", "c4.4xlarge", "m4.4xlarge"}, 18, 0.5, 13},
	{"bowtie2", []spot.InstanceType{"c3.2xlarge", "c4.2xlarge", "m4.2xlarge"}, 15, 0.5, 12},
	{"samtools-sort", []spot.InstanceType{"r3.xlarge", "r4.xlarge", "m4.xlarge"}, 8, 0.45, 16},
	{"picard-markdup", []spot.InstanceType{"r3.2xlarge", "r4.2xlarge", "m4.2xlarge"}, 12, 0.5, 10},
	{"star-align", []spot.InstanceType{"r3.4xlarge", "r4.4xlarge", "m4.4xlarge"}, 20, 0.55, 8},
	{"gatk-haplotype", []spot.InstanceType{"c3.8xlarge", "c4.8xlarge", "m4.10xlarge"}, 35, 0.7, 7},
}

// Tools returns the tool names in catalog order.
func Tools() []string {
	out := make([]string, len(tools))
	for i, t := range tools {
		out[i] = t.name
	}
	return out
}

// ProfileFor returns the catalog profile for a tool name.
func ProfileFor(name string) (Profile, error) {
	for _, t := range tools {
		if t.name == name {
			return t.profile(), nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown tool %q", name)
}

func (t tool) profile() Profile {
	// The profile estimate sits near the tool's 90th percentile: a profile
	// service over-estimates slightly so that provisioned durations cover
	// most executions.
	p90 := t.medianMin * math.Exp(1.2816*t.sigma)
	return Profile{
		Tool:       t.name,
		Candidates: append([]spot.InstanceType(nil), t.candidates...),
		EstRuntime: time.Duration(p90 * float64(time.Minute)),
	}
}

// Galaxies synthesizes an n-job trace across the given submission span.
// Jobs arrive in workflow batches of 1-8 jobs (Poisson-spaced workflows,
// seconds-apart jobs within a batch), mirroring how the platform
// decomposes workflows into job queues.
func Galaxies(n int, span time.Duration, seed int64) Trace {
	if n <= 0 {
		return Trace{}
	}
	if span <= 0 {
		span = 3*time.Hour + 20*time.Minute
	}
	rng := stats.NewRNG(seed)

	totalWeight := 0
	for _, t := range tools {
		totalWeight += t.weight
	}
	pick := func() tool {
		v := rng.Intn(totalWeight)
		for _, t := range tools {
			v -= t.weight
			if v < 0 {
				return t
			}
		}
		return tools[len(tools)-1]
	}

	var jobs []Job
	id := 0
	for id < n {
		// Workflow arrival uniformly over the span; batch of 1..8 jobs.
		base := time.Duration(rng.Float64() * float64(span))
		batch := 1 + rng.Intn(8)
		for b := 0; b < batch && id < n; b++ {
			t := pick()
			runtime := time.Duration(rng.LogNormal(math.Log(t.medianMin), t.sigma) * float64(time.Minute))
			if runtime < 30*time.Second {
				runtime = 30 * time.Second
			}
			jobs = append(jobs, Job{
				ID:      id,
				Profile: t.profile(),
				Submit:  base + time.Duration(b)*time.Duration(1+rng.Intn(20))*time.Second,
				Runtime: runtime,
			})
			id++
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Submit < jobs[j].Submit })
	for i := range jobs {
		jobs[i].ID = i
	}
	return Trace{Jobs: jobs}
}
