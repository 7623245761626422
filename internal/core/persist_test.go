package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/spot"
)

// persistTestPredictor returns a predictor that observed an n-point series
// with a window of maxHistory points, and the series itself.
func persistTestPredictor(t testing.TB, n, maxHistory int) (*Predictor, *history.Series) {
	t.Helper()
	start := time.Date(2016, 10, 1, 0, 0, 0, 0, time.UTC)
	ser, err := pricegen.Generator{Seed: 7}.Series(
		spot.Combo{Zone: "us-east-1a", Type: "m3.medium"}, start, n)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(Params{Probability: 0.95, MaxHistory: maxHistory}, start)
	if err != nil {
		t.Fatal(err)
	}
	p.ObserveSeries(ser)
	return p, ser
}

func TestPredictorSaveLoadRoundTrip(t *testing.T) {
	p, ser := persistTestPredictor(t, 2000, 2000)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	q, err := LoadPredictor(bytes.NewReader(buf.Bytes()), ser)
	if err != nil {
		t.Fatalf("LoadPredictor: %v", err)
	}
	var again bytes.Buffer
	if err := q.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Errorf("restored predictor saves different bytes:\n%s\n%s", buf.Bytes(), again.Bytes())
	}

	if !q.Now().Equal(p.Now()) {
		t.Errorf("Now: %v != %v", q.Now(), p.Now())
	}
	if q.Len() != p.Len() {
		t.Errorf("Len: %d != %d", q.Len(), p.Len())
	}
	pb, pok := p.MinBid()
	qb, qok := q.MinBid()
	if pok != qok || (pok && !spot.SamePrice(pb, qb)) {
		t.Errorf("MinBid: %v,%v != %v,%v", pb, pok, qb, qok)
	}
	// The restored predictor must produce the exact table the original does.
	pt, pok := p.Table()
	qt, qok := q.Table()
	if pok != qok || len(pt.Points) != len(qt.Points) {
		t.Fatalf("Table shape: %d,%v != %d,%v", len(pt.Points), pok, len(qt.Points), qok)
	}
	if !pt.At.Equal(qt.At) {
		t.Errorf("Table.At: %v != %v", pt.At, qt.At)
	}
	for i := range pt.Points {
		if !spot.SamePrice(pt.Points[i].Bid, qt.Points[i].Bid) ||
			pt.Points[i].Duration != qt.Points[i].Duration {
			t.Errorf("point %d: %+v != %+v", i, pt.Points[i], qt.Points[i])
		}
	}
}

// TestPredictorSaveLoadContinuesIdentically verifies the stronger contract:
// a restored predictor that keeps observing behaves exactly like one that
// never stopped.
func TestPredictorSaveLoadContinuesIdentically(t *testing.T) {
	start := time.Date(2016, 10, 1, 0, 0, 0, 0, time.UTC)
	ser, err := pricegen.Generator{Seed: 7}.Series(
		spot.Combo{Zone: "us-east-1a", Type: "m3.medium"}, start, 2500)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Predictor {
		p, err := NewPredictor(Params{Probability: 0.95, MaxHistory: 2500}, start)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Continuous predictor sees everything.
	cont := mk()
	cont.ObserveSeries(ser)
	// Checkpointed predictor sees the first 2000, round-trips, then the rest.
	ck := mk()
	ck.ObserveSeries(span(ser, 0, 2000))
	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// The restore re-slices the window from the longer series, as a
	// service restore does from a WAL that kept growing after the snapshot.
	restored, err := LoadPredictor(bytes.NewReader(buf.Bytes()), ser)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ser.Prices[2000:] {
		restored.Observe(v)
	}

	if !restored.Now().Equal(cont.Now()) {
		t.Errorf("Now diverged: %v != %v", restored.Now(), cont.Now())
	}
	ct, cok := cont.Table()
	rt, rok := restored.Table()
	if cok != rok || len(ct.Points) != len(rt.Points) {
		t.Fatalf("table shape diverged: %d,%v != %d,%v", len(ct.Points), cok, len(rt.Points), rok)
	}
	for i := range ct.Points {
		if !spot.SamePrice(ct.Points[i].Bid, rt.Points[i].Bid) ||
			ct.Points[i].Duration != rt.Points[i].Duration {
			t.Errorf("point %d diverged: %+v != %+v", i, ct.Points[i], rt.Points[i])
		}
	}
}

func TestLoadPredictorRejectsDefects(t *testing.T) {
	// The window is the last 300 of 500 points, so the series has ticks
	// on both sides of what the restore re-slices.
	p, ser := persistTestPredictor(t, 500, 300)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	cases := map[string]string{
		"garbage":     "not json",
		"bad-version": `{"version":99}`,
		"empty":       `{}`,
		"v1":          `{"version":1,"params":{"Probability":0.95},"step_ns":300000000000,"count":2,"prices":[0.1,0.1]}`,
	}
	for name, in := range cases {
		if _, err := LoadPredictor(bytes.NewReader([]byte(in)), ser); err == nil {
			t.Errorf("LoadPredictor accepted %s", name)
		}
	}

	altered := func(i int) *history.Series {
		cp := cloneSeries(ser)
		cp.Prices[i] += spot.PriceTick
		return cp
	}
	offGrid := cloneSeries(ser)
	offGrid.Start = offGrid.Start.Add(time.Minute)
	coarse := cloneSeries(ser)
	coarse.Step = 2 * ser.Step
	for name, tc := range map[string]struct {
		series *history.Series
		want   string
	}{
		"no-series":           {nil, "no history series"},
		"shorter-than-window": {span(ser, 300, ser.Len()), "window points"},
		"ends-before-clock":   {span(ser, 0, 499), "before predictor clock"},
		"off-grid-clock":      {offGrid, "not on the series grid"},
		"other-step":          {coarse, "step"},
		"altered-price":       {altered(350), "checksum"},
		"altered-last-price":  {altered(499), "checksum"},
	} {
		_, err := LoadPredictor(strings.NewReader(good), tc.series)
		if err == nil {
			t.Errorf("LoadPredictor accepted %s", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}

	// Sanity: the untampered state still loads, also from a series whose
	// ticks outside the window differ.
	if _, err := LoadPredictor(bytes.NewReader([]byte(good)), ser); err != nil {
		t.Errorf("LoadPredictor rejected valid state: %v", err)
	}
	if _, err := LoadPredictor(bytes.NewReader([]byte(good)), altered(150)); err != nil {
		t.Errorf("LoadPredictor rejected a change outside the window: %v", err)
	}
}

// TestPredictorSaveLoadDroppedPrices round-trips predictors whose series
// carry prices Observe drops (and one beyond the tick grid), inside and
// before the window: the restored predictor sits at the same clock, saves
// the same bytes and keeps producing the tables of one that never stopped.
// Each predictor is restored from the whole series and from the series
// cut at Oldest (the same whether the prices came in bulk or one by one),
// as a WAL compacted there replays it. While the window
// holds such a price, the price QBETS's history reaches back past the
// window; on the stationary series no change point shortens that history,
// so a cut at the window's start would lose its oldest prices.
func TestPredictorSaveLoadDroppedPrices(t *testing.T) {
	start := time.Date(2016, 10, 1, 0, 0, 0, 0, time.UTC)
	market, err := pricegen.Generator{Seed: 7}.Series(spot.Combo{Zone: "us-east-1a", Type: "m3.medium"}, start, 3000)
	if err != nil {
		t.Fatal(err)
	}
	stationary := make([]float64, 3000)
	for i := range stationary {
		stationary[i] = spot.FromTicks(500 + i*7919%13)
	}
	for name, clean := range map[string][]float64{"market": market.Prices, "stationary": stationary} {
		ser := &history.Series{Start: start, Step: spot.UpdatePeriod, Prices: slices.Clone(clean)}
		var dropped []int
		for i, v := range []float64{math.NaN(), 0, -0.05, math.Inf(1), 5e5, math.NaN()} {
			dropped = append(dropped, 400+377*i)
			ser.Prices[dropped[i]] = v
		}
		for _, maxHistory := range []int{0, 100, 215, 1000, 2000} { // 215: a dropped price is the window's oldest
			params := Params{Probability: 0.95, MaxHistory: maxHistory}
			cont, err := NewPredictor(params, start)
			if err != nil {
				t.Fatal(err)
			}
			cont.ObserveSeries(ser)
			want, wantOK := tableBytes(t, cont)
			ck, err := NewPredictor(params, start)
			if err != nil {
				t.Fatal(err)
			}
			ck.ObserveSeries(span(ser, 0, 2500))
			var buf bytes.Buffer
			if err := ck.Save(&buf); err != nil {
				t.Fatal(err)
			}
			from := 2500 - ck.Len()
			if slices.ContainsFunc(dropped, func(i int) bool { return i >= from }) {
				from = 0
			}
			one, err := NewPredictor(params, start)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range ser.Prices[:2500] {
				one.Observe(v)
			}
			for _, p := range []*Predictor{ck, one} {
				if oldest, ok := p.Oldest(); !ok || !oldest.Equal(ser.TimeAt(from)) {
					t.Fatalf("%s, max history %d: Oldest %v, want %v", name, maxHistory, oldest, ser.TimeAt(from))
				}
			}
			for _, src := range []*history.Series{ser, span(ser, from, ser.Len())} {
				restored, err := LoadPredictor(bytes.NewReader(buf.Bytes()), src)
				if err != nil {
					t.Fatalf("%s, max history %d, series from %v: %v", name, maxHistory, src.Start, err)
				}
				checkChunkBounds(t, fmt.Sprintf("%s, max history %d, restored", name, maxHistory), &restored.win)
				if !restored.Now().Equal(ser.TimeAt(2499)) {
					t.Errorf("%s, max history %d: restored clock %v, want %v", name, maxHistory, restored.Now(), ser.TimeAt(2499))
				}
				var again bytes.Buffer
				if err := restored.Save(&again); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), again.Bytes()) {
					t.Errorf("%s, max history %d: restored predictor saves different bytes", name, maxHistory)
				}
				restored.ObserveAll(ser.Prices[2500:])
				got, gotOK := tableBytes(t, restored)
				if !wantOK || !gotOK || !bytes.Equal(got, want) {
					t.Errorf("%s, max history %d: restored predictor's table differs from one that never stopped", name, maxHistory)
				}
			}
		}
	}
}

// BenchmarkLoadPredictor times one restore of a 90-day predictor: the
// window re-sliced from its series and checksummed, and the price bound's
// state rebuilt.
func BenchmarkLoadPredictor(b *testing.B) {
	p, ser := persistTestPredictor(b, DefaultMaxHistory+500, DefaultMaxHistory)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadPredictor(bytes.NewReader(buf.Bytes()), ser); err != nil {
			b.Fatal(err)
		}
	}
}
