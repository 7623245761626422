package qbets

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/drafts-go/drafts/internal/stats"
)

// TestSaveLoadRoundTrip: a restored predictor must produce the same bound
// now and evolve identically on further observations.
func TestSaveLoadRoundTrip(t *testing.T) {
	rng := stats.NewRNG(99)
	orig := MustNew(upperCfg())
	var fed []float64
	for i := 0; i < 3000; i++ {
		v := rng.LogNormal(-2, 0.4)
		orig.Observe(v)
		fed = append(fed, v)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(bytes.NewReader(buf.Bytes()), fed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != orig.Len() {
		t.Fatalf("restored Len %d, want %d", restored.Len(), orig.Len())
	}
	if restored.ChangePoints() != orig.ChangePoints() {
		t.Errorf("change points %d vs %d", restored.ChangePoints(), orig.ChangePoints())
	}
	b1, ok1 := orig.Bound()
	b2, ok2 := restored.Bound()
	if ok1 != ok2 || b1 != b2 {
		t.Fatalf("bound diverged after restore: %v,%v vs %v,%v", b1, ok1, b2, ok2)
	}
	// Identical evolution on identical further input.
	feed := stats.NewRNG(7)
	for i := 0; i < 2000; i++ {
		v := feed.LogNormal(-2, 0.4)
		orig.Observe(v)
		restored.Observe(v)
		ba, oka := orig.Bound()
		bb, okb := restored.Bound()
		if oka != okb || ba != bb {
			t.Fatalf("evolution diverged at %d: %v vs %v", i, ba, bb)
		}
	}
}

// TestSaveLoadAcrossChangePoints: persistence mid-detector-state (pending
// flush scheduled) must survive the round trip.
func TestSaveLoadAcrossChangePoints(t *testing.T) {
	rng := stats.NewRNG(5)
	orig := MustNew(upperCfg())
	var fed []float64
	observe := func(v float64) {
		orig.Observe(v)
		fed = append(fed, v)
	}
	for i := 0; i < 1500; i++ {
		observe(1 + 0.05*rng.Float64())
	}
	// Start a regime shift; stop mid-adaptation so detector state is hot.
	for i := 0; i < 70; i++ {
		observe(9 + 0.5*rng.Float64())
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, fed, nil)
	if err != nil {
		t.Fatal(err)
	}
	feed := stats.NewRNG(6)
	for i := 0; i < 500; i++ {
		v := 9 + 0.5*feed.Float64()
		orig.Observe(v)
		restored.Observe(v)
	}
	if orig.ChangePoints() != restored.ChangePoints() {
		t.Errorf("change point counts diverged: %d vs %d", orig.ChangePoints(), restored.ChangePoints())
	}
	ba, _ := orig.Bound()
	bb, _ := restored.Bound()
	if ba != bb {
		t.Errorf("bounds diverged after shift: %v vs %v", ba, bb)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	window := []float64{1, 2, 3}
	if _, err := Load(strings.NewReader("{not json"), window, nil); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := Load(strings.NewReader(`{"version":99}`), window, nil); err == nil {
		t.Error("unknown version accepted")
	}
	// A version-1 state carried its history inline; it is not read.
	v1 := `{"version":1,"quantile":0.975,"confidence":0.99,"change_point_window":2,` +
		`"viol_ring":[false,false],"history":[1,2]}`
	if _, err := Load(strings.NewReader(v1), window, nil); err == nil {
		t.Error("version-1 state accepted")
	}
	if _, err := Load(strings.NewReader(`{"version":2,"quantile":2,"confidence":0.9}`), window, nil); err == nil {
		t.Error("invalid config accepted")
	}
	bad := `{"version":2,"quantile":0.975,"confidence":0.99,"change_point_window":60,` +
		`"viol_ring":[true],"history_len":1}`
	if _, err := Load(strings.NewReader(bad), window, nil); err == nil {
		t.Error("ring/window mismatch accepted")
	}
	ok := `{"version":2,"quantile":0.975,"confidence":0.99,"change_point_window":2,` +
		`"viol_ring":[false,false],"history_len":2}`
	if _, err := Load(strings.NewReader(ok), window, nil); err != nil {
		t.Errorf("valid state rejected: %v", err)
	}
	if _, err := Load(strings.NewReader(ok), window[:1], nil); err == nil {
		t.Error("window shorter than the history accepted")
	}
	if _, err := Load(strings.NewReader(ok), []float64{1, math.Inf(1)}, nil); err == nil {
		t.Error("non-finite history value accepted")
	}
	capped := `{"version":2,"quantile":0.975,"confidence":0.99,"change_point_window":2,` +
		`"max_history":1,"viol_ring":[false,false],"history_len":2}`
	if _, err := Load(strings.NewReader(capped), window, nil); err == nil {
		t.Error("history beyond max history accepted")
	}
	neg := `{"version":2,"quantile":0.975,"confidence":0.99,"change_point_window":2,` +
		`"viol_ring":[false,false],"history_len":-1}`
	if _, err := Load(strings.NewReader(neg), window, nil); err == nil {
		t.Error("negative history length accepted")
	}
}

// TestSaveOmitsHistoryValues pins the wire form: the retained history
// travels as a length, and Load rebuilds it from the window's tail, so a
// longer window with extra leading values restores the same predictor.
func TestSaveOmitsHistoryValues(t *testing.T) {
	cfg := upperCfg()
	cfg.MaxHistory = 500
	orig := MustNew(cfg)
	rng := stats.NewRNG(11)
	var fed []float64
	for i := 0; i < 800; i++ {
		v := 0.5 + float64(rng.Intn(1000))*0.0001
		orig.Observe(v)
		fed = append(fed, v)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"history":`)) {
		t.Fatalf("saved state carries history values: %s", buf.Bytes())
	}
	if n := buf.Len(); n > 1024 {
		t.Errorf("saved state is %d bytes; want it independent of the history length", n)
	}
	restored, err := Load(bytes.NewReader(buf.Bytes()), fed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != orig.Len() {
		t.Fatalf("restored Len %d, want %d", restored.Len(), orig.Len())
	}
	var again bytes.Buffer
	if err := restored.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Errorf("save/load/save not stable:\n%s\n%s", buf.Bytes(), again.Bytes())
	}
	b1, _ := orig.Bound()
	b2, _ := restored.Bound()
	if b1 != b2 {
		t.Errorf("bound diverged: %v vs %v", b1, b2)
	}
}

func TestSaveLoadCustomStore(t *testing.T) {
	cfg := upperCfg()
	cfg.NewStore = func() OrderStats { return NewFenwickStore(0.0001, 2) }
	orig := MustNew(cfg)
	rng := stats.NewRNG(3)
	var fed []float64
	for i := 0; i < 800; i++ {
		v := float64(rng.Intn(2000)) * 0.0001
		orig.Observe(v)
		fed = append(fed, v)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, fed, func() OrderStats { return NewFenwickStore(0.0001, 2) })
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := orig.Bound()
	b2, _ := restored.Bound()
	if b1 != b2 {
		t.Errorf("custom-store bound diverged: %v vs %v", b1, b2)
	}
}
