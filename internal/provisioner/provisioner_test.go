package provisioner

import (
	"fmt"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/workload"
)

// fakeQuoter returns canned quotes per combo.
type fakeQuoter struct {
	bids map[spot.Combo]float64
	// failFor marks combos whose Advise cannot guarantee the duration.
	failFor map[spot.Combo]bool
}

func (f *fakeQuoter) Advise(c spot.Combo, d time.Duration) (core.Quote, error) {
	bid, ok := f.bids[c]
	if !ok {
		return core.Quote{}, fmt.Errorf("no market for %v", c)
	}
	if f.failFor[c] {
		return core.Quote{Bid: bid, Duration: d / 2}, fmt.Errorf("cannot guarantee %v", d)
	}
	return core.Quote{Bid: bid, Duration: d}, nil
}

func (f *fakeQuoter) OnDemand(c spot.Combo) (float64, error) {
	return spot.ODPrice(c.Type, c.Zone.Region())
}

func prof(t *testing.T, tool string) workload.Profile {
	t.Helper()
	p, err := workload.ProfileFor(tool)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStrategyStrings(t *testing.T) {
	if Original.String() != "Original" || DrAFTS1Hr.String() != "DrAFTS (1-hr)" ||
		DrAFTSProfiles.String() != "DrAFTS (profiles)" {
		t.Error("strategy names wrong")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy should print")
	}
	if len(Strategies()) != 3 {
		t.Error("Strategies() wrong length")
	}
}

func TestChooseOriginal(t *testing.T) {
	p := prof(t, "bwa-mem") // preferred candidate c3.4xlarge
	d, err := Choose(Original, &fakeQuoter{}, spot.USEast1, p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Combo.Type != "c3.4xlarge" {
		t.Errorf("Original picked %v, want the preferred candidate", d.Combo.Type)
	}
	od, _ := spot.ODPrice("c3.4xlarge", spot.USEast1)
	if d.Bid != spot.RoundToTick(0.8*od) {
		t.Errorf("Original bid %v, want 80%% of OD %v", d.Bid, od)
	}
	if d.Need != 0 {
		t.Errorf("Original has no duration notion, got %v", d.Need)
	}
}

func TestChooseDrAFTSPicksSmallestBid(t *testing.T) {
	p := prof(t, "bwa-mem")
	fq := &fakeQuoter{bids: map[spot.Combo]float64{}, failFor: map[spot.Combo]bool{}}
	cheap := spot.Combo{Zone: "us-east-1d", Type: "c4.4xlarge"}
	for _, ty := range p.Candidates {
		for _, z := range spot.ZonesOf(spot.USEast1) {
			if spot.Available(ty, z) {
				fq.bids[spot.Combo{Zone: z, Type: ty}] = 0.50
			}
		}
	}
	fq.bids[cheap] = 0.11
	d, err := Choose(DrAFTS1Hr, fq, spot.USEast1, p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Combo != cheap || d.Bid != 0.11 {
		t.Errorf("picked %v at %v, want %v at 0.11", d.Combo, d.Bid, cheap)
	}
	if d.Need != time.Hour {
		t.Errorf("need = %v", d.Need)
	}
}

func TestChooseDrAFTSPrefersGuaranteed(t *testing.T) {
	p := prof(t, "fastqc")
	fq := &fakeQuoter{bids: map[spot.Combo]float64{}, failFor: map[spot.Combo]bool{}}
	cheapButUnsure := spot.Combo{Zone: "us-east-1b", Type: "m3.medium"}
	pricey := spot.Combo{Zone: "us-east-1c", Type: "m3.medium"}
	fq.bids[cheapButUnsure] = 0.01
	fq.failFor[cheapButUnsure] = true
	fq.bids[pricey] = 0.05
	d, err := Choose(DrAFTS1Hr, fq, spot.USEast1, p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Combo != pricey {
		t.Errorf("picked unguaranteed combo %v", d.Combo)
	}
}

func TestChooseDrAFTSBestEffortFallback(t *testing.T) {
	p := prof(t, "fastqc")
	fq := &fakeQuoter{bids: map[spot.Combo]float64{}, failFor: map[spot.Combo]bool{}}
	only := spot.Combo{Zone: "us-east-1b", Type: "m3.medium"}
	fq.bids[only] = 0.02
	fq.failFor[only] = true
	d, err := Choose(DrAFTS1Hr, fq, spot.USEast1, p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Combo != only || d.Bid != 0.02 {
		t.Errorf("best-effort fallback picked %v at %v", d.Combo, d.Bid)
	}
}

func TestChooseDrAFTSNoMarket(t *testing.T) {
	p := prof(t, "fastqc")
	fq := &fakeQuoter{bids: map[spot.Combo]float64{}}
	if _, err := Choose(DrAFTS1Hr, fq, spot.USEast1, p); err == nil {
		t.Error("no-market case accepted")
	}
}

func TestChooseProfilesUsesEstimate(t *testing.T) {
	p := prof(t, "gatk-haplotype")
	fq := &fakeQuoter{bids: map[spot.Combo]float64{{Zone: "us-east-1b", Type: "c3.8xlarge"}: 0.3}}
	d, err := Choose(DrAFTSProfiles, fq, spot.USEast1, p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Need != p.EstRuntime {
		t.Errorf("need = %v, want profile estimate %v", d.Need, p.EstRuntime)
	}
}

func TestChooseProfilesFloorsTinyEstimates(t *testing.T) {
	p := prof(t, "fastqc")
	p.EstRuntime = time.Second
	fq := &fakeQuoter{bids: map[spot.Combo]float64{{Zone: "us-east-1b", Type: "m3.medium"}: 0.01}}
	d, err := Choose(DrAFTSProfiles, fq, spot.USEast1, p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Need != minProfileNeed {
		t.Errorf("need = %v, want floor %v", d.Need, minProfileNeed)
	}
}

func TestChooseUnknownStrategy(t *testing.T) {
	if _, err := Choose(Strategy(42), &fakeQuoter{}, spot.USEast1, prof(t, "fastqc")); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestQueueFIFOAndRequeue(t *testing.T) {
	q := NewQueue()
	if q.Len("fastqc") != 0 {
		t.Error("fresh queue not empty")
	}
	mk := func(id int, tool string) workload.Job {
		p, _ := workload.ProfileFor(tool)
		return workload.Job{ID: id, Profile: p, Runtime: time.Minute}
	}
	q.Push(mk(1, "fastqc"))
	q.Push(mk(2, "fastqc"))
	q.Push(mk(3, "bwa-mem"))
	if q.Len("fastqc") != 2 || q.Len("bwa-mem") != 1 {
		t.Fatalf("counts wrong: %d %d", q.Len("fastqc"), q.Len("bwa-mem"))
	}
	j, ok := q.Pop("fastqc")
	if !ok || j.ID != 1 {
		t.Errorf("Pop = %v, %v", j.ID, ok)
	}
	// Requeue goes to the front.
	q.Requeue(mk(9, "fastqc"))
	j, _ = q.Pop("fastqc")
	if j.ID != 9 {
		t.Errorf("requeued job not at front: got %d", j.ID)
	}
	j, _ = q.Pop("fastqc")
	if j.ID != 2 {
		t.Errorf("FIFO broken: got %d", j.ID)
	}
	if _, ok := q.Pop("fastqc"); ok {
		t.Error("empty pop succeeded")
	}
	if _, ok := q.Pop("never-seen"); ok {
		t.Error("unknown tool pop succeeded")
	}
	// Requeue into a never-seen tool must register the tool.
	q2 := NewQueue()
	q2.Requeue(mk(5, "bowtie2"))
	if q2.Len("bowtie2") != 1 {
		t.Error("requeue into fresh queue broken")
	}
}
