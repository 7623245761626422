package qbets

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// The paper notes that QBETS "can be implemented efficiently if the time
// series state needed to determine change points is persistent so that it
// is suitable for on-line use" (§3.1). Save and Load serialize a
// predictor's detector state so a service restart resumes exactly where it
// stopped instead of re-ingesting three months of prices.
//
// The retained history itself does not travel: it is always the most
// recent HistoryLen observations, which the caller already holds (the
// service re-slices them from its replayed price log). Load takes that
// window and rebuilds the chronological history and the order-statistic
// store from its tail.

// persistedState is the wire form of a Predictor: configuration, the
// retained history's length, and the detector counters.
type persistedState struct {
	Version int `json:"version"`

	Kind              Kind    `json:"kind"`
	Quantile          float64 `json:"quantile"`
	Confidence        float64 `json:"confidence"`
	ChangePointWindow int     `json:"change_point_window"`
	ChangePointAlpha  float64 `json:"change_point_alpha"`
	MaxHistory        int     `json:"max_history"`
	AutocorrEvery     int     `json:"autocorr_every"`
	NoChangePoint     bool    `json:"no_change_point"`

	HistoryLen int `json:"history_len"`

	ViolRing  []bool `json:"viol_ring"`
	ViolIdx   int    `json:"viol_idx"`
	ViolFill  int    `json:"viol_fill"`
	ViolCount int    `json:"viol_count"`

	SinceRho int     `json:"since_rho"`
	Rho      float64 `json:"rho"` // NaN encoded as null via pointer below
	RhoValid bool    `json:"rho_valid"`

	SinceMedianTest int `json:"since_median_test"`
	ChangePoints    int `json:"change_points"`
	PendingFlush    int `json:"pending_flush"`
}

const persistVersion = 2

// Save serializes the predictor's state as JSON. The retained history is
// recorded by length only; Load needs a window ending with it.
func (p *Predictor) Save(w io.Writer) error {
	st := persistedState{
		Version:           persistVersion,
		Kind:              p.cfg.Kind,
		Quantile:          p.cfg.Quantile,
		Confidence:        p.cfg.Confidence,
		ChangePointWindow: p.cfg.ChangePointWindow,
		ChangePointAlpha:  p.cfg.ChangePointAlpha,
		MaxHistory:        p.cfg.MaxHistory,
		AutocorrEvery:     p.cfg.AutocorrEvery,
		NoChangePoint:     p.cfg.NoChangePoint,
		HistoryLen:        p.histLen(),
		ViolRing:          append([]bool(nil), p.violRing...),
		ViolIdx:           p.violIdx,
		ViolFill:          p.violFill,
		ViolCount:         p.violCount,
		SinceRho:          p.sinceRho,
		SinceMedianTest:   p.sinceMedianTest,
		ChangePoints:      p.changePoints,
		PendingFlush:      p.pendingFlush,
	}
	if !math.IsNaN(p.rho) {
		st.Rho = p.rho
		st.RhoValid = true
	}
	return json.NewEncoder(w).Encode(st)
}

// Load reconstructs a predictor saved with Save. window holds the
// observations fed to the saved predictor, oldest first, ending with its
// latest; the restored history is its last HistoryLen values. The
// order-statistic store is rebuilt with the given constructor (nil for the
// default).
func Load(r io.Reader, window []float64, newStore func() OrderStats) (*Predictor, error) {
	var st persistedState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("qbets: decoding state: %w", err)
	}
	if st.Version != persistVersion {
		return nil, fmt.Errorf("qbets: unsupported state version %d", st.Version)
	}
	cfg := Config{
		Kind:              st.Kind,
		Quantile:          st.Quantile,
		Confidence:        st.Confidence,
		ChangePointWindow: st.ChangePointWindow,
		ChangePointAlpha:  st.ChangePointAlpha,
		MaxHistory:        st.MaxHistory,
		AutocorrEvery:     st.AutocorrEvery,
		NoChangePoint:     st.NoChangePoint,
		NewStore:          newStore,
	}
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if len(st.ViolRing) != len(p.violRing) {
		return nil, fmt.Errorf("qbets: violation ring length %d does not match window %d",
			len(st.ViolRing), cfg.ChangePointWindow)
	}
	if st.HistoryLen < 0 || st.HistoryLen > len(window) {
		return nil, fmt.Errorf("qbets: history length %d outside the %d-point window", st.HistoryLen, len(window))
	}
	if cfg.MaxHistory > 0 && st.HistoryLen > cfg.MaxHistory {
		return nil, fmt.Errorf("qbets: history length %d exceeds max history %d", st.HistoryLen, cfg.MaxHistory)
	}
	hist := window[len(window)-st.HistoryLen:]
	for _, v := range hist {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("qbets: non-finite value in history window")
		}
		p.store.Insert(v)
	}
	p.chron = append(make([]float64, 0, len(hist)), hist...)
	copy(p.violRing, st.ViolRing)
	p.violIdx = st.ViolIdx
	p.violFill = st.ViolFill
	p.violCount = st.ViolCount
	p.sinceRho = st.SinceRho
	if st.RhoValid {
		p.rho = st.Rho
	}
	p.sinceMedianTest = st.SinceMedianTest
	p.changePoints = st.ChangePoints
	p.pendingFlush = st.PendingFlush
	return p, nil
}
