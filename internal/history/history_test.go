package history

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/spot"
)

var t0 = time.Date(2016, 10, 1, 0, 0, 0, 0, time.UTC)

func rampSeries(n int) *Series {
	s := NewSeries(t0)
	for i := 0; i < n; i++ {
		s.Append(spot.FromTicks(1000 + i))
	}
	return s
}

func TestSeriesIndexing(t *testing.T) {
	s := rampSeries(10)
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.TimeAt(3); !got.Equal(t0.Add(15 * time.Minute)) {
		t.Errorf("TimeAt(3) = %v", got)
	}
	if got := s.End(); !got.Equal(t0.Add(50 * time.Minute)) {
		t.Errorf("End = %v", got)
	}
	cases := []struct {
		t    time.Time
		want int
	}{
		{t0, 0},
		{t0.Add(4 * time.Minute), 0},
		{t0.Add(5 * time.Minute), 1},
		{t0.Add(49 * time.Minute), 9},
		{t0.Add(50 * time.Minute), 10},
		{t0.Add(-1 * time.Minute), -1},
	}
	for _, c := range cases {
		if got := s.IndexOf(c.t); got != c.want {
			t.Errorf("IndexOf(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestSeriesAt(t *testing.T) {
	s := rampSeries(10)
	if p, ok := s.At(t0.Add(7 * time.Minute)); !ok || p != 0.1001 {
		t.Errorf("At = %v, %v", p, ok)
	}
	if _, ok := s.At(t0.Add(-time.Second)); ok {
		t.Error("At before start should fail")
	}
	if _, ok := s.At(s.End()); ok {
		t.Error("At end should fail")
	}
}

func TestValidate(t *testing.T) {
	s := rampSeries(5)
	if err := s.Validate(); err != nil {
		t.Errorf("valid series rejected: %v", err)
	}
	bad := NewSeries(t0)
	bad.Append(0)
	if err := bad.Validate(); err == nil {
		t.Error("zero price accepted")
	}
	bad2 := NewSeries(t0)
	bad2.Append(math.NaN())
	if err := bad2.Validate(); err == nil {
		t.Error("NaN price accepted")
	}
	bad3 := &Series{Start: t0, Step: 0, Prices: []float64{1}}
	if err := bad3.Validate(); err == nil {
		t.Error("zero step accepted")
	}
}

func TestResampleLOCF(t *testing.T) {
	pts := []spot.PricePoint{
		{At: t0.Add(-time.Hour), Price: 0.5},
		{At: t0.Add(7 * time.Minute), Price: 0.6},
		{At: t0.Add(8 * time.Minute), Price: 0.7},
		{At: t0.Add(31 * time.Minute), Price: 0.4},
	}
	s, err := Resample(pts, t0, t0.Add(40*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 0.5, 0.7, 0.7, 0.7, 0.7, 0.7, 0.4}
	if len(s.Prices) != len(want) {
		t.Fatalf("len = %d, want %d", len(s.Prices), len(want))
	}
	for i := range want {
		if s.Prices[i] != want[i] {
			t.Errorf("price[%d] = %v, want %v", i, s.Prices[i], want[i])
		}
	}
}

func TestResampleErrors(t *testing.T) {
	if _, err := Resample(nil, t0, t0); err == nil {
		t.Error("empty window accepted")
	}
	// No announcement before start.
	pts := []spot.PricePoint{{At: t0.Add(time.Minute), Price: 1}}
	if _, err := Resample(pts, t0, t0.Add(10*time.Minute)); err == nil {
		t.Error("missing initial level accepted")
	}
	// Out of order.
	disordered := []spot.PricePoint{
		{At: t0.Add(time.Hour), Price: 1},
		{At: t0, Price: 2},
	}
	if _, err := Resample(disordered, t0, t0.Add(10*time.Minute)); err == nil {
		t.Error("disordered input accepted")
	}
}

func TestStorePutGetHistory(t *testing.T) {
	st := NewStore()
	c := spot.Combo{Zone: "us-east-1b", Type: "c4.large"}
	if err := st.Put(c, rampSeries(1000)); err != nil {
		t.Fatal(err)
	}
	combos := st.Combos()
	if len(combos) != 1 || combos[0] != c {
		t.Fatalf("Combos = %v", combos)
	}
	full, ok := st.Full(c)
	if !ok || full.Len() != 1000 {
		t.Fatalf("Full = %v, %v", full, ok)
	}
	// Full is a read-only view. Its capacity ends at its length, so
	// appending to it copies instead of writing into the store's array.
	want := append([]float64(nil), full.Prices...)
	grown := append(full.Prices, 42)
	// Appends to the store after Full leave the view's length and
	// elements as they were.
	for i := 0; i < 100; i++ {
		st.Append(c, t0, 9.9)
	}
	if !spot.SamePrice(grown[1000], 42) {
		t.Error("appending to a Full view shares the store's array")
	}
	if full.Len() != 1000 || !slices.Equal(full.Prices, want) {
		t.Errorf("appends showed through a Full view: len %d", full.Len())
	}
	if again, _ := st.Full(c); again.Len() != 1100 || !spot.SamePrice(again.Prices[1000], 9.9) {
		t.Errorf("Full after appends: len %d, want 1100 ending in appended prices", again.Len())
	}
	// A view taken before Put keeps the series it viewed.
	if err := st.Put(c, rampSeries(1000)); err != nil {
		t.Fatal(err)
	}
	if full.Len() != 1000 || !slices.Equal(full.Prices, want) {
		t.Error("Put changed a Full view taken before it")
	}
	if _, ok := st.Full(spot.Combo{Zone: "x", Type: "y"}); ok {
		t.Error("missing combo found")
	}
}

func TestStoreAppendCreates(t *testing.T) {
	st := NewStore()
	c := spot.Combo{Zone: "us-east-1c", Type: "m3.medium"}
	st.Append(c, t0, 0.1)
	st.Append(c, t0, 0.2)
	s, ok := st.Full(c)
	if !ok {
		t.Fatal("Append did not create the series")
	}
	if p, ok := s.At(t0.Add(6 * time.Minute)); !ok || p != 0.2 {
		t.Errorf("price at 6m = %v, %v", p, ok)
	}
	if _, ok := s.At(t0.Add(time.Hour)); ok {
		t.Error("price beyond series accepted")
	}
}

func TestStorePutRejectsInvalid(t *testing.T) {
	st := NewStore()
	bad := NewSeries(t0)
	bad.Append(-1)
	if err := st.Put(spot.Combo{Zone: "z", Type: "t"}, bad); err == nil {
		t.Error("invalid series accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	c := spot.Combo{Zone: "us-east-1b", Type: "c4.large"}
	s := rampSeries(50)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, c, s); err != nil {
		t.Fatal(err)
	}
	c2, s2, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c {
		t.Errorf("combo = %v, want %v", c2, c)
	}
	if s2.Len() != s.Len() {
		t.Fatalf("len = %d, want %d", s2.Len(), s.Len())
	}
	for i := range s.Prices {
		if math.Abs(s2.Prices[i]-s.Prices[i]) > 1e-9 {
			t.Errorf("price[%d] = %v, want %v", i, s2.Prices[i], s.Prices[i])
		}
	}
	if !s2.Start.Equal(s.Start) {
		t.Errorf("start = %v, want %v", s2.Start, s.Start)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, _, err := ReadCSV(strings.NewReader("bogus,header,x,y\n")); err == nil {
		t.Error("bad header accepted")
	}
	if _, _, err := ReadCSV(strings.NewReader("zone,instance_type,timestamp,price_usd_hour\n")); err == nil {
		t.Error("empty body accepted")
	}
	mixed := "zone,instance_type,timestamp,price_usd_hour\n" +
		"us-east-1b,c4.large,2016-10-01T00:00:00Z,0.1\n" +
		"us-east-1c,c4.large,2016-10-01T00:05:00Z,0.1\n"
	if _, _, err := ReadCSV(strings.NewReader(mixed)); err == nil {
		t.Error("mixed combos accepted")
	}
	badTime := "zone,instance_type,timestamp,price_usd_hour\n" +
		"us-east-1b,c4.large,yesterday,0.1\n"
	if _, _, err := ReadCSV(strings.NewReader(badTime)); err == nil {
		t.Error("bad timestamp accepted")
	}
	badPrice := "zone,instance_type,timestamp,price_usd_hour\n" +
		"us-east-1b,c4.large,2016-10-01T00:00:00Z,cheap\n"
	if _, _, err := ReadCSV(strings.NewReader(badPrice)); err == nil {
		t.Error("bad price accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := spot.Combo{Zone: "us-west-1a", Type: "c3.2xlarge"}
	s := rampSeries(20)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, c, s); err != nil {
		t.Fatal(err)
	}
	c2, s2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c || s2.Len() != 20 || s2.Step != s.Step || !s2.Start.Equal(s.Start) {
		t.Errorf("round trip mismatch: %v %d %v %v", c2, s2.Len(), s2.Step, s2.Start)
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	if _, _, err := ReadJSON(strings.NewReader(`{"step_ms":0,"prices":[1]}`)); err == nil {
		t.Error("zero step accepted")
	}
	if _, _, err := ReadJSON(strings.NewReader(`{not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	st := NewStore()
	c := spot.Combo{Zone: "us-east-1b", Type: "c4.large"}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			st.Append(c, t0, 0.1)
		}
	}()
	for i := 0; i < 2000; i++ {
		st.Combos()
		st.Full(c)
	}
	<-done
	if s, ok := st.Full(c); !ok || s.Len() != 2000 {
		t.Error("concurrent appends lost")
	}
}
