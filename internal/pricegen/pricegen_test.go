package pricegen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/stats"
)

var t0 = time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)

const month = int(30 * 24 * time.Hour / spot.UpdatePeriod)

func gen(t *testing.T, c spot.Combo, n int) *history.Series {
	t.Helper()
	s, err := Generator{Seed: 1}.Series(c, t0, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDeterminism(t *testing.T) {
	c := spot.Combo{Zone: "us-east-1b", Type: "c4.large"}
	a := gen(t, c, 2000)
	b := gen(t, c, 2000)
	for i := range a.Prices {
		if a.Prices[i] != b.Prices[i] {
			t.Fatalf("divergence at %d", i)
		}
	}
	other, err := Generator{Seed: 2}.Series(c, t0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Prices {
		if a.Prices[i] == other.Prices[i] {
			same++
		}
	}
	if same == len(a.Prices) {
		t.Error("different seeds produced identical series")
	}
}

func TestSeriesValidEverywhere(t *testing.T) {
	for _, c := range spot.Combos()[:40] {
		s := gen(t, c, 5000)
		if err := s.Validate(); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		for i, p := range s.Prices {
			if spot.RoundToTick(p) != p {
				t.Fatalf("%v: price %v at %d off the tick grid", c, p, i)
			}
		}
	}
}

func TestSeriesErrors(t *testing.T) {
	g := Generator{Seed: 1}
	if _, err := g.Series(spot.Combo{Zone: "us-east-1b", Type: "bogus"}, t0, 10); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := g.Series(spot.Combo{Zone: "us-east-1b", Type: "c4.large"}, t0, 0); err == nil {
		t.Error("zero length accepted")
	}
}

func TestNamedArchetypes(t *testing.T) {
	cases := []struct {
		c    spot.Combo
		want Archetype
	}{
		{spot.Combo{Zone: "us-east-1c", Type: "cg1.4xlarge"}, Hostile},
		{spot.Combo{Zone: "us-east-1e", Type: "c4.4xlarge"}, Spiky},
		{spot.Combo{Zone: "us-west-2c", Type: "m1.large"}, Cheap},
		{spot.Combo{Zone: "us-east-1b", Type: "c4.large"}, Calm},
		{spot.Combo{Zone: "us-west-1a", Type: "c3.2xlarge"}, Volatile},
	}
	for _, c := range cases {
		if got := ArchetypeFor(c.c); got != c.want {
			t.Errorf("ArchetypeFor(%v) = %v, want %v", c.c, got, c.want)
		}
	}
}

// TestHostileAlwaysAboveOnDemand reproduces §4.1.2: every cg1.4xlarge
// price must strictly exceed the $2.10 On-demand price; the minimum
// observed must be exactly one tick above ($2.1001).
func TestHostileAlwaysAboveOnDemand(t *testing.T) {
	c := spot.Combo{Zone: "us-east-1c", Type: "cg1.4xlarge"}
	s := gen(t, c, 3*month)
	od, _ := spot.ODPrice(c.Type, c.Zone.Region())
	min := math.Inf(1)
	for _, p := range s.Prices {
		if p <= od {
			t.Fatalf("hostile price %v not above OD %v", p, od)
		}
		if p < min {
			min = p
		}
	}
	if min < od+spot.PriceTick-1e-9 {
		t.Errorf("minimum %v below one tick above OD", min)
	}
}

// TestSpikyDynamicRange reproduces §4.4: c4.4xlarge in us-east-1e spans
// nearly two orders of magnitude.
func TestSpikyDynamicRange(t *testing.T) {
	c := spot.Combo{Zone: "us-east-1e", Type: "c4.4xlarge"}
	s := gen(t, c, 5*month)
	sum := stats.Describe(s.Prices)
	if ratio := sum.Max / sum.Min; ratio < 20 {
		t.Errorf("spiky range ratio %.1f, want >= 20 (paper: ~73x)", ratio)
	}
	od, _ := spot.ODPrice(c.Type, c.Zone.Region())
	if sum.Max < 2*od {
		t.Errorf("spiky max %v never climbed above 2x OD %v", sum.Max, od)
	}
	if sum.Min > 0.3*od {
		t.Errorf("spiky min %v not a deep discount of OD %v", sum.Min, od)
	}
}

// TestCheapStaysFarBelowOnDemand reproduces §4.4's m1.large/us-west-2c:
// the whole series stays in a low band (paper: $0.02..$0.10 vs OD $0.175).
func TestCheapStaysFarBelowOnDemand(t *testing.T) {
	c := spot.Combo{Zone: "us-west-2c", Type: "m1.large"}
	s := gen(t, c, 3*month)
	od, _ := spot.ODPrice(c.Type, c.Zone.Region())
	sum := stats.Describe(s.Prices)
	if sum.Max > 0.65*od {
		t.Errorf("cheap max %v too close to OD %v", sum.Max, od)
	}
	if sum.Min < 0.01 {
		t.Errorf("cheap min %v implausibly low", sum.Min)
	}
}

// TestCalmIsCalm checks the Figure-2 combo: narrow band, far below OD.
func TestCalmIsCalm(t *testing.T) {
	c := spot.Combo{Zone: "us-east-1b", Type: "c4.large"}
	s := gen(t, c, 2*month)
	od, _ := spot.ODPrice(c.Type, c.Zone.Region())
	sum := stats.Describe(s.Prices)
	if sum.Max > od {
		t.Errorf("calm series exceeded OD: max %v vs %v", sum.Max, od)
	}
	if cv := sum.Stddev() / sum.Mean; cv > 0.5 {
		t.Errorf("calm coefficient of variation %.2f too high", cv)
	}
}

// TestVolatileExceedsOnDemand checks the Figure-3 combo episodically
// exceeds On-demand, which is what makes an On-demand-price bid unsafe.
func TestVolatileExceedsOnDemand(t *testing.T) {
	c := spot.Combo{Zone: "us-west-1a", Type: "c3.2xlarge"}
	s := gen(t, c, 3*month)
	od, _ := spot.ODPrice(c.Type, c.Zone.Region())
	above := 0
	for _, p := range s.Prices {
		if p > od {
			above++
		}
	}
	if above == 0 {
		t.Error("volatile series never exceeded On-demand")
	}
	if frac := float64(above) / float64(s.Len()); frac > 0.3 {
		t.Errorf("volatile series above OD %0.2f of the time; should be episodic", frac)
	}
}

// TestDiurnalCycle verifies a clear daily pattern for a diurnal combo: the
// average price around the daily peak hour exceeds the trough average.
func TestDiurnalCycle(t *testing.T) {
	var combo spot.Combo
	found := false
	for _, c := range spot.Combos() {
		if ArchetypeFor(c) == Diurnal {
			combo, found = c, true
			break
		}
	}
	if !found {
		t.Fatal("no diurnal combo in population")
	}
	s := gen(t, combo, 2*month)
	var peak, trough []float64
	for i, p := range s.Prices {
		switch s.TimeAt(i).Hour() {
		case 14, 15, 16:
			peak = append(peak, p)
		case 2, 3, 4:
			trough = append(trough, p)
		}
	}
	mp, mt := stats.Describe(peak).Mean, stats.Describe(trough).Mean
	if mp <= mt*1.12 {
		t.Errorf("no diurnal signal: peak mean %v vs trough mean %v", mp, mt)
	}
}

// TestArchetypeDistribution verifies the hash assignment produces the
// Table-1-compatible population mix: 30-45%% of combos should episodically
// trade above On-demand (volatile+spiky+hostile).
func TestArchetypeDistribution(t *testing.T) {
	counts := map[Archetype]int{}
	for _, c := range spot.Combos() {
		counts[ArchetypeFor(c)]++
	}
	total := len(spot.Combos())
	risky := counts[Volatile] + counts[Spiky] + counts[Hostile]
	frac := float64(risky) / float64(total)
	if frac < 0.28 || frac > 0.48 {
		t.Errorf("risky combo fraction %.2f outside [0.28, 0.48]: %v", frac, counts)
	}
	for a := Calm; a <= Cheap; a++ {
		if counts[a] == 0 {
			t.Errorf("archetype %v absent from population", a)
		}
	}
}

func TestPopulateParallel(t *testing.T) {
	st := history.NewStore()
	combos := spot.Combos()[:64]
	if err := (Generator{Seed: 3}).Populate(st, combos, t0, 500); err != nil {
		t.Fatal(err)
	}
	if got := len(st.Combos()); got != 64 {
		t.Fatalf("store has %d combos, want 64", got)
	}
	// Parallel result must match the serial generator exactly.
	for _, c := range combos[:5] {
		want, err := (Generator{Seed: 3}).Series(c, t0, 500)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := st.Full(c)
		for i := range want.Prices {
			if got.Prices[i] != want.Prices[i] {
				t.Fatalf("%v: parallel/serial divergence at %d", c, i)
			}
		}
	}
}

func TestPopulateError(t *testing.T) {
	st := history.NewStore()
	bad := []spot.Combo{{Zone: "us-east-1b", Type: "nope"}}
	if err := (Generator{Seed: 1}).Populate(st, bad, t0, 10); err == nil {
		t.Error("expected error for unknown type")
	}
}

func TestArchetypeString(t *testing.T) {
	if Calm.String() != "calm" || Hostile.String() != "hostile" {
		t.Error("archetype names wrong")
	}
	if Archetype(99).String() == "" {
		t.Error("unknown archetype should still print")
	}
}

func TestContinueExtendsExactly(t *testing.T) {
	c := spot.Combo{Zone: "us-east-1b", Type: "c4.large"}
	full := gen(t, c, 2000)
	ext, err := Generator{Seed: 1}.Continue(c, t0, 1500, 500)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Len() != 500 {
		t.Fatalf("Continue returned %d steps, want 500", ext.Len())
	}
	if !ext.Start.Equal(full.TimeAt(1500)) {
		t.Fatalf("extension starts at %v, want %v", ext.Start, full.TimeAt(1500))
	}
	for i := 0; i < 500; i++ {
		if ext.Prices[i] != full.Prices[1500+i] {
			t.Fatalf("extension diverged from the full series at step %d", i)
		}
	}
}

func TestContinueErrors(t *testing.T) {
	c := spot.Combo{Zone: "us-east-1b", Type: "c4.large"}
	if _, err := (Generator{Seed: 1}).Continue(c, t0, -1, 10); err == nil {
		t.Error("negative prefix accepted")
	}
	if _, err := (Generator{Seed: 1}).Continue(c, t0, 5, 0); err == nil {
		t.Error("zero-length extension accepted")
	}
}

// TestSeriesGolden pins the walk to the bits it produced before it became
// a resumable cursor: FNV-64a over the little-endian float64 bits of every
// catalog combo's 20000-step series, in catalog order.
func TestSeriesGolden(t *testing.T) {
	h := fnv.New64a()
	var b [8]byte
	start := time.Date(2016, 7, 2, 0, 0, 0, 0, time.UTC)
	for _, c := range spot.Combos() {
		s, err := Generator{Seed: 42}.Series(c, start, 20000)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range s.Prices {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(p))
			h.Write(b[:])
		}
	}
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "e31e32ab0c5d9a5d"; got != want {
		t.Errorf("Series hash = %s, want %s", got, want)
	}
}

// oneComboPerArchetype returns the first catalog combo of each archetype.
func oneComboPerArchetype(t testing.TB) []spot.Combo {
	t.Helper()
	var out []spot.Combo
	seen := map[Archetype]bool{}
	for _, c := range spot.Combos() {
		if a := ArchetypeFor(c); !seen[a] {
			seen[a] = true
			out = append(out, c)
		}
	}
	if len(out) != int(Cheap)+1 {
		t.Fatalf("catalog covers %d archetypes, want %d", len(out), int(Cheap)+1)
	}
	return out
}

// sameBits fails unless got holds exactly want's float64 bits and starts
// at the time of want's first step.
func sameBits(t *testing.T, got, want *history.Series, what string) {
	t.Helper()
	if !got.Start.Equal(want.Start) || got.Step != want.Step {
		t.Fatalf("%s: grid %v/%v, want %v/%v", what, got.Start, got.Step, want.Start, want.Step)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d steps, want %d", what, got.Len(), want.Len())
	}
	for i := range want.Prices {
		if math.Float64bits(got.Prices[i]) != math.Float64bits(want.Prices[i]) {
			t.Fatalf("%s: step %d is %v, want %v", what, i, got.Prices[i], want.Prices[i])
		}
	}
}

// TestContinueMatchesSeries splits each archetype's series at seeded
// random points and checks the concatenated Continue stream against
// Series bit for bit, then replays a rewind and a gap on the warm memo.
func TestContinueMatchesSeries(t *testing.T) {
	const total = 4000
	rng := stats.NewRNG(7)
	g := Generator{Seed: 11}
	for _, c := range oneComboPerArchetype(t) {
		want, err := g.Series(c, t0, total)
		if err != nil {
			t.Fatal(err)
		}
		for have := 0; have < total; {
			n := 1 + rng.Intn(300)
			if have+n > total {
				n = total - have
			}
			got, err := g.Continue(c, t0, have, n)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, got, want.Slice(have, have+n), fmt.Sprintf("%v [%d,%d)", c, have, have+n))
			have += n
		}
		// The memo's cursor now sits at total: rewind behind it, then
		// jump a gap ahead of it.
		for _, r := range [][2]int{{1000, 50}, {100, 10}, {3000, 700}, {0, total}} {
			got, err := g.Continue(c, t0, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, got, want.Slice(r[0], r[0]+r[1]), fmt.Sprintf("%v [%d,%d)", c, r[0], r[0]+r[1]))
		}
	}
}

// TestContinueConcurrentSameWalk runs one walk's Continue from several
// goroutines at once: each call gets its own cursor (the memo hands one
// out at a time), so every result equals Series.
func TestContinueConcurrentSameWalk(t *testing.T) {
	c := spot.Combo{Zone: "us-west-1a", Type: "c3.2xlarge"}
	g := Generator{Seed: 12}
	want, err := g.Series(c, t0, 3000)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for have := w; have+20 <= want.Len(); have += 97 + w {
				got, err := g.Continue(c, t0, have, 20)
				if err != nil {
					errs <- err
					return
				}
				for i, p := range got.Prices {
					if math.Float64bits(p) != math.Float64bits(want.Prices[have+i]) {
						errs <- fmt.Errorf("worker %d: step %d is %v, want %v", w, have+i, p, want.Prices[have+i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestContinueMemoBounded checks the memo never holds more than memoCap
// cursors, however many walks are continued.
func TestContinueMemoBounded(t *testing.T) {
	c := spot.Combo{Zone: "us-east-1b", Type: "c4.large"}
	for seed := int64(0); seed <= memoCap; seed++ {
		if _, err := (Generator{Seed: 1000 + seed}).Continue(c, t0, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	memo.Lock()
	n := len(memo.m)
	memo.Unlock()
	if n > memoCap {
		t.Errorf("memo holds %d cursors, cap %d", n, memoCap)
	}
}

// TestContinueCostIndependentOfUptime shows a warm Continue does not redo
// the prefix: extending a 90-day history allocates exactly what extending
// a 1-day history does, and less than a cold call, which builds a cursor.
func TestContinueCostIndependentOfUptime(t *testing.T) {
	c := spot.Combo{Zone: "us-west-1a", Type: "c3.2xlarge"}
	g := Generator{Seed: 13}
	allocs := func(have int) float64 {
		// AllocsPerRun's warm-up call builds the cursor; each timed call
		// then asks for the three ticks after the last ones served.
		return testing.AllocsPerRun(50, func() {
			if _, err := g.Continue(c, t0, have, 3); err != nil {
				t.Fatal(err)
			}
			have += 3
		})
	}
	day, quarter := allocs(288), allocs(90*288)
	if day != quarter {
		t.Errorf("warm Continue allocates %v at 1 day, %v at 90 days", day, quarter)
	}
	cold := testing.AllocsPerRun(5, func() {
		if _, err := (Generator{Seed: 14}).Continue(c, t0, 0, 3); err != nil {
			t.Fatal(err)
		}
	})
	if day >= cold {
		t.Errorf("warm Continue allocates %v, no fewer than a cold one (%v)", day, cold)
	}
}

// BenchmarkContinue is one feed cycle at the ingest shape: three new ticks
// for each of 60 combos holding 90 days of history.
func BenchmarkContinue(b *testing.B) {
	combos := spot.Combos()[:60]
	g := Generator{Seed: 15}
	have := 90 * 288
	for _, c := range combos {
		if _, err := g.Continue(c, t0, have, 3); err != nil {
			b.Fatal(err)
		}
	}
	have += 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range combos {
			if _, err := g.Continue(c, t0, have, 3); err != nil {
				b.Fatal(err)
			}
		}
		have += 3
	}
}
