package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
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
// Len ticks ending at Now, and the service's price log already holds
// those ticks, so LoadPredictor re-slices the window from the replayed
// history series. A CRC-32C over the window's prices travels instead, and
// a restore whose series disagrees with the saved window in length, grid
// alignment or any single tick fails. The probabilities of one market
// save the same window, so a restore re-slices it once: LoadPredictor
// shares an already restored sibling's window when it matches.

// predictorState is the wire form of a Predictor: parameters, the clock
// (start, step and the count of ticks offered, so Now survives the round
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
		Window:    p.win.n,
		WindowCRC: p.win.checksum(),
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
//
// sib, when not nil, is a predictor of the same market already restored
// from series (another probability's). When the saved clock, window
// length, MaxHistory and window checksum all match sib's, the window is
// sib's, shared as Sibling shares it, and nothing is re-sliced.
func LoadPredictor(r io.Reader, series *history.Series, sib *Predictor) (*Predictor, error) {
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
		win:    tickWindow{limit: params.MaxHistory},
	}
	var upto []float64 // the series prices up to the clock
	if st.Window > 0 {
		if upto, err = seriesUpTo(series, p.Now(), p.step, st.Window); err != nil {
			return nil, err
		}
		if sib != nil && sib.start.Equal(p.start) && sib.step == p.step && sib.count == p.count &&
			sib.win.n == st.Window && sib.win.limit == p.win.limit && sib.win.checksum() == st.WindowCRC {
			p.win, p.dropped = sib.win.clone(), sib.dropped
		} else if k := p.win.pushPrices(upto[len(upto)-st.Window:]); k > 0 {
			p.dropped = p.count - st.Window + k
		}
	}
	if sum := p.win.checksum(); sum != st.WindowCRC {
		return nil, fmt.Errorf("core: price window checksum %08x does not match saved %08x", sum, st.WindowCRC)
	}
	p.price, err = qbets.Load(bytes.NewReader(st.Price), boundHistory(upto, p.count, params.MaxHistory), priceQBETSConfig(params).NewStore)
	if err != nil {
		return nil, fmt.Errorf("core: restoring price bound state: %w", err)
	}
	return p, nil
}

// seriesUpTo returns the series prices up to and including the grid point
// at now, a view, checking that they hold the n window points ending
// there.
func seriesUpTo(series *history.Series, now time.Time, step time.Duration, n int) ([]float64, error) {
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
	return series.Prices[:end+1], nil
}

// boundHistory returns the last limit prices the price QBETS accepted up
// to the clock (all of them when limit is 0), oldest first: the history
// it retains is their tail. upto ends at the clock, and only its last
// count prices were offered to the predictor. The prices lie inside the
// window unless it holds a dropped price; each one there reaches one
// accepted price further back.
func boundHistory(upto []float64, count, limit int) []float64 {
	lo := max(len(upto)-count, 0)
	size := len(upto) - lo
	if limit > 0 {
		size = min(size, limit)
	}
	grid := qbets.NewLevelStore(spot.PriceTick)
	buf := make([]float64, size)
	j := size
	for i := len(upto) - 1; i >= lo && j > 0; i-- {
		if v := upto[i]; validPrice(v) && grid.Places(v) {
			j--
			buf[j] = v
		}
	}
	return buf[j:]
}

// Oldest returns the time of the oldest tick a restore reads: the oldest
// retained tick, or, while the window holds a tick that may be a dropped
// price (maybeDropped), the predictor's first, since the price QBETS's
// history may then reach back past the window (boundHistory). ok is false
// for an empty window.
func (p *Predictor) Oldest() (time.Time, bool) {
	n := p.win.n
	switch {
	case n == 0:
		return time.Time{}, false
	case p.dropped > p.count-n:
		return p.start, true
	}
	return p.Now().Add(-time.Duration(n-1) * p.step), true
}
