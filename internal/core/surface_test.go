package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/spot"
)

func surfaceFixture(t *testing.T, prob float64) (*Predictor, *AdviseSurface) {
	t.Helper()
	p, err := NewPredictor(testParams(prob), t0)
	if err != nil {
		t.Fatal(err)
	}
	p.ObserveSeries(mustGen(t, spot.Combo{Zone: "us-east-1b", Type: "c4.large"}, 5000))
	s, ok := p.Surface()
	if !ok {
		t.Fatal("Surface on warmed predictor failed")
	}
	return p, s
}

func TestSurfaceRequiresHistory(t *testing.T) {
	p, _ := NewPredictor(testParams(0.95), t0)
	if _, ok := p.Surface(); ok {
		t.Error("Surface with no data should fail")
	}
}

func TestSurfaceShape(t *testing.T) {
	_, s := surfaceFixture(t, 0.95)
	if len(s.Bids) == 0 || len(s.Bids) != len(s.Guar) {
		t.Fatalf("malformed surface: %d bids, %d guarantees", len(s.Bids), len(s.Guar))
	}
	for i := 1; i < len(s.Bids); i++ {
		if s.Bids[i] <= s.Bids[i-1] {
			t.Fatalf("bids not strictly increasing at %d: %d then %d", i, s.Bids[i-1], s.Bids[i])
		}
	}
	if s.Probability != 0.95 {
		t.Errorf("probability = %v", s.Probability)
	}
	if s.Step != spot.UpdatePeriod {
		t.Errorf("step = %v", s.Step)
	}
}

// TestSurfaceMatchesScan is the core equivalence property: for any
// duration, Advise and Lookup answer exactly what the escalation scan
// answers — same quote on success, refusal with the same error text on
// failure.
func TestSurfaceMatchesScan(t *testing.T) {
	for _, prob := range []float64{0.95, 0.99} {
		p, s := surfaceFixture(t, prob)
		rng := rand.New(rand.NewSource(43))
		durations := []time.Duration{
			time.Minute, 5 * time.Minute, time.Hour, 90 * time.Minute,
			24 * time.Hour, 25*time.Hour + time.Minute, 7 * 24 * time.Hour,
			90 * 24 * time.Hour, 200 * 24 * time.Hour,
		}
		for i := 0; i < 400; i++ {
			durations = append(durations, time.Duration(1+rng.Int63n(int64(40*24*time.Hour))))
		}
		for _, d := range durations {
			want, wantErr := scanAdvise(p, d)
			adv, advErr := p.Advise(d)
			if adv != want || (advErr == nil) != (wantErr == nil) ||
				(wantErr != nil && advErr.Error() != wantErr.Error()) {
				t.Fatalf("p=%v d=%v: Advise (%+v, %v) != scan (%+v, %v)", prob, d, adv, advErr, want, wantErr)
			}
			got, ok := s.Lookup(d)
			if wantErr == nil {
				if !ok {
					t.Fatalf("p=%v d=%v: scan succeeded (%+v) but surface refused", prob, d, want)
				}
				if got != want {
					t.Fatalf("p=%v d=%v: surface %+v != scan %+v", prob, d, got, want)
				}
				continue
			}
			if ok {
				t.Fatalf("p=%v d=%v: scan refused (%v) but surface quoted %+v", prob, d, wantErr, got)
			}
			if gotErr := s.CannotGuarantee(d); gotErr.Error() != wantErr.Error() {
				t.Fatalf("p=%v d=%v: refusal text diverged:\nsurface: %s\nscan:    %s", prob, d, gotErr, wantErr)
			}
		}
	}
}

func TestSurfaceWireRoundTrip(t *testing.T) {
	p, s := surfaceFixture(t, 0.99)
	rebuilt, err := NewAdviseSurface(s.Probability, s.Step, s.Bids, s.Guar)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		d := time.Duration(1 + rng.Int63n(int64(30*24*time.Hour)))
		a, aok := s.Lookup(d)
		b, bok := rebuilt.Lookup(d)
		if aok != bok || a != b {
			t.Fatalf("d=%v: rebuilt surface diverged: (%+v,%v) != (%+v,%v)", d, b, bok, a, aok)
		}
	}
	_ = p
}

func TestNewAdviseSurfaceRejectsDefects(t *testing.T) {
	step := spot.UpdatePeriod
	cases := []struct {
		name string
		prob float64
		step time.Duration
		bids []uint32
		guar []uint32
	}{
		{"bad probability", 1.5, step, []uint32{10}, []uint32{1}},
		{"zero step", 0.99, 0, []uint32{10}, []uint32{1}},
		{"empty", 0.99, step, nil, nil},
		{"length mismatch", 0.99, step, []uint32{10, 20}, []uint32{1}},
		{"non-increasing bids", 0.99, step, []uint32{10, 10}, []uint32{1, 2}},
	}
	for _, tc := range cases {
		if _, err := NewAdviseSurface(tc.prob, tc.step, tc.bids, tc.guar); err == nil {
			t.Errorf("%s: defect accepted", tc.name)
		}
	}
}

func TestSurfaceLookupEdges(t *testing.T) {
	_, s := surfaceFixture(t, 0.95)
	if _, ok := s.Lookup(0); ok {
		t.Error("zero duration accepted")
	}
	if _, ok := s.Lookup(-time.Hour); ok {
		t.Error("negative duration accepted")
	}
	// One step is the smallest request; the minimum bid answers it on a
	// calm market, and it must match the scan like everything else.
	want, err := s.Lookup(s.Step)
	if !err {
		t.Fatal("single-step duration refused")
	}
	if want.Bid <= 0 || want.Duration < s.Step {
		t.Errorf("degenerate single-step quote %+v", want)
	}
	// Far beyond any retained history: refused, with the ceiling quote as
	// the best effort.
	if _, ok := s.Lookup(10 * 365 * 24 * time.Hour); ok {
		t.Error("decade-long guarantee accepted")
	}
	if best := s.Best(); best.Bid <= 0 {
		t.Errorf("Best = %+v", best)
	}
}
