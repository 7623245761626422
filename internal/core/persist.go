package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/qbets"
	"github.com/drafts-go/drafts/internal/spot"
)

// The online predictor is the expensive part of a refresh: it carries three
// months of ingested history plus the QBETS detector state. Save and Load
// let the service checkpoint that state into snapshots so a restart resumes
// forecasting where it stopped instead of re-observing the whole window.
//
// The price window is not part of the checkpoint. It is always the last
// Len observations ending at Now, and the service's price log already
// holds those ticks, so LoadPredictor re-slices the window from the
// replayed history series. A CRC-32C over the window's float bits travels
// instead, and a restore whose series disagrees with the saved window in
// length, grid alignment or any single value fails.

// predictorState is the wire form of a Predictor: parameters, the clock
// (start, step and total observation count, so Now survives the round
// trip), the retained window's length and checksum, and the QBETS state.
type predictorState struct {
	Version   int             `json:"version"`
	Params    Params          `json:"params"`
	Start     time.Time       `json:"start"`
	StepNS    int64           `json:"step_ns"`
	Count     int             `json:"count"`
	Window    int             `json:"window"`
	WindowCRC uint32          `json:"window_crc32c"`
	Price     json.RawMessage `json:"price_qbets"`
}

const predictorPersistVersion = 2

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// windowChecksum is the CRC-32C of the prices' IEEE-754 bits, little
// endian, oldest first.
func windowChecksum(prices []float64) uint32 {
	var buf [8 * 512]byte
	var sum uint32
	for len(prices) > 0 {
		n := min(len(prices), 512)
		for i, v := range prices[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		sum = crc32.Update(sum, castagnoli, buf[:8*n])
		prices = prices[n:]
	}
	return sum
}

// Save serializes the predictor's state as JSON. The price window is
// recorded by length and checksum only; LoadPredictor needs the history
// series it came from.
func (p *Predictor) Save(w io.Writer) error {
	var priceBuf bytes.Buffer
	if err := p.price.Save(&priceBuf); err != nil {
		return fmt.Errorf("core: saving price bound state: %w", err)
	}
	st := predictorState{
		Version:   predictorPersistVersion,
		Params:    p.params,
		Start:     p.start,
		StepNS:    int64(p.step),
		Count:     p.count,
		Window:    p.window(),
		WindowCRC: windowChecksum(p.hist()),
		Price:     json.RawMessage(bytes.TrimSpace(priceBuf.Bytes())),
	}
	return json.NewEncoder(w).Encode(st)
}

// LoadPredictor reconstructs a predictor saved with Save. Its price window
// is re-sliced from series: the Window grid points ending at the saved
// clock (Now), which must lie on the series grid. The slice must match the
// saved checksum. The embedded QBETS state is rebuilt from the window's
// tail with the same tick-bucketed order-statistic store NewPredictor
// uses, so the restored forecaster is bit-identical to the saved one.
func LoadPredictor(r io.Reader, series *history.Series) (*Predictor, error) {
	var st predictorState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: decoding predictor state: %w", err)
	}
	if st.Version != predictorPersistVersion {
		return nil, fmt.Errorf("core: unsupported predictor state version %d", st.Version)
	}
	params, err := st.Params.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("core: persisted params invalid: %w", err)
	}
	if st.StepNS <= 0 {
		return nil, fmt.Errorf("core: non-positive persisted step %d", st.StepNS)
	}
	if st.Window < 0 || st.Count < st.Window {
		return nil, fmt.Errorf("core: persisted window %d outside [0, count %d]", st.Window, st.Count)
	}
	if params.MaxHistory > 0 && st.Window > params.MaxHistory {
		return nil, fmt.Errorf("core: persisted window %d exceeds max history %d", st.Window, params.MaxHistory)
	}
	p := &Predictor{
		params: params,
		start:  st.Start,
		step:   time.Duration(st.StepNS),
		count:  st.Count,
	}
	if st.Window > 0 {
		if p.prices, err = sliceWindow(series, p.Now(), p.step, st.Window); err != nil {
			return nil, err
		}
	}
	if sum := windowChecksum(p.prices); sum != st.WindowCRC {
		return nil, fmt.Errorf("core: price window checksum %08x does not match saved %08x", sum, st.WindowCRC)
	}
	p.price, err = qbets.Load(bytes.NewReader(st.Price), p.prices, func() qbets.OrderStats {
		return qbets.NewFenwickStore(spot.PriceTick, 4)
	})
	if err != nil {
		return nil, fmt.Errorf("core: restoring price bound state: %w", err)
	}
	return p, nil
}

// sliceWindow copies the n grid points of series that end at now.
func sliceWindow(series *history.Series, now time.Time, step time.Duration, n int) ([]float64, error) {
	if series == nil {
		return nil, fmt.Errorf("core: no history series to restore a %d-point window from", n)
	}
	if series.Step != step {
		return nil, fmt.Errorf("core: series step %v differs from predictor step %v", series.Step, step)
	}
	end := series.IndexOf(now)
	if !series.TimeAt(end).Equal(now) {
		return nil, fmt.Errorf("core: predictor clock %v is not on the series grid (start %v, step %v)",
			now, series.Start, series.Step)
	}
	if end >= series.Len() {
		return nil, fmt.Errorf("core: series ends at %v, before predictor clock %v", series.End(), now)
	}
	if end+1 < n {
		return nil, fmt.Errorf("core: series holds %d of the %d window points ending at %v", max(end+1, 0), n, now)
	}
	return append([]float64(nil), series.Prices[end+1-n:end+1]...), nil
}

// Oldest returns the time of the oldest observation in the retained
// window, the earliest tick a restore re-slices; ok is false for an empty
// window.
func (p *Predictor) Oldest() (time.Time, bool) {
	n := p.window()
	if n == 0 {
		return time.Time{}, false
	}
	return p.Now().Add(-time.Duration(n-1) * p.step), true
}
