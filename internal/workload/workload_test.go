package workload

import (
	"testing"
	"time"
)

func TestGalaxiesShape(t *testing.T) {
	tr := Galaxies(1000, 0, 42) // default 3h20m span
	if len(tr.Jobs) != 1000 {
		t.Fatalf("%d jobs", len(tr.Jobs))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if span := tr.Jobs[len(tr.Jobs)-1].Submit; span > 3*time.Hour+20*time.Minute+3*time.Minute {
		t.Errorf("span %v exceeds the submission window", span)
	}
	// Few jobs above one hour (the paper: "the workload contains few jobs
	// that last longer than one hour").
	over := 0
	for _, j := range tr.Jobs {
		if j.Runtime > time.Hour {
			over++
		}
	}
	if over == 0 {
		t.Error("no job exceeds one hour; the gatk tail should produce a few")
	}
	if frac := float64(over) / 1000; frac > 0.08 {
		t.Errorf("%.1f%% of jobs exceed one hour; should be a small fraction", 100*frac)
	}
	// Total work should land in a plausible machine-hours range.
	work := tr.TotalWork().Hours()
	if work < 80 || work > 450 {
		t.Errorf("total work %.0f hours outside plausible range", work)
	}
}

func TestGalaxiesDeterministic(t *testing.T) {
	a := Galaxies(200, time.Hour, 7)
	b := Galaxies(200, time.Hour, 7)
	for i := range a.Jobs {
		if a.Jobs[i].Submit != b.Jobs[i].Submit || a.Jobs[i].Runtime != b.Jobs[i].Runtime ||
			a.Jobs[i].Profile.Tool != b.Jobs[i].Profile.Tool {
			t.Fatalf("job %d diverged", i)
		}
	}
	c := Galaxies(200, time.Hour, 8)
	same := true
	for i := range a.Jobs {
		if a.Jobs[i].Runtime != c.Jobs[i].Runtime {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGalaxiesEmpty(t *testing.T) {
	if tr := Galaxies(0, time.Hour, 1); len(tr.Jobs) != 0 {
		t.Error("zero-job trace not empty")
	}
}

func TestToolCatalog(t *testing.T) {
	names := Tools()
	if len(names) != 8 {
		t.Fatalf("%d tools", len(names))
	}
	for _, name := range names {
		p, err := ProfileFor(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Tool != name || len(p.Candidates) < 2 || p.EstRuntime <= 0 {
			t.Errorf("profile %+v malformed", p)
		}
	}
	if _, err := ProfileFor("quantum-blast"); err == nil {
		t.Error("unknown tool accepted")
	}
}

func TestEstimateCoversMostRuns(t *testing.T) {
	// The profile estimate is calibrated near P90: most actual runtimes
	// must fall below it, but not all.
	tr := Galaxies(3000, 0, 9)
	within, total := 0, 0
	for _, j := range tr.Jobs {
		total++
		if j.Runtime <= j.Profile.EstRuntime {
			within++
		}
	}
	frac := float64(within) / float64(total)
	if frac < 0.80 || frac > 0.97 {
		t.Errorf("%.2f of runtimes within estimate; want ~0.90", frac)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := Galaxies(10, time.Hour, 3)
	tr.Jobs[4].Runtime = 0
	if err := tr.Validate(); err == nil {
		t.Error("zero runtime accepted")
	}
	tr = Galaxies(10, time.Hour, 3)
	tr.Jobs[0].Submit = -time.Second
	if err := tr.Validate(); err == nil {
		t.Error("negative submit accepted")
	}
	tr = Galaxies(10, time.Hour, 3)
	tr.Jobs[3].Submit = tr.Jobs[9].Submit + time.Hour
	if err := tr.Validate(); err == nil {
		t.Error("disordered submits accepted")
	}
	tr = Galaxies(10, time.Hour, 3)
	tr.Jobs[2].Profile.Candidates = nil
	if err := tr.Validate(); err == nil {
		t.Error("missing candidates accepted")
	}
}

func TestSpanAndWorkEmpty(t *testing.T) {
	var tr Trace
	if tr.TotalWork() != 0 {
		t.Error("empty trace work nonzero")
	}
}
