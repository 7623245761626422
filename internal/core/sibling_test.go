package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/spot"
)

// siblingProbs are the probabilities the sharing tests build a market's
// predictors at: the first one's window is the one every other reads.
var siblingProbs = [...]float64{0.95, 0.99, 0.5}

// siblingSet is one market's predictors, one per siblingProbs entry: the
// first built or extended on its own, the others its Siblings.
type siblingSet [len(siblingProbs)]*Predictor

func siblingParams(t testing.TB, limit int, i int) Params {
	t.Helper()
	p, err := Params{Probability: siblingProbs[i], MaxHistory: limit}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// coldSet builds a set from prices the way the service's cold refresh
// does: the first predictor observes them all, and every other is its
// Sibling with no predecessor.
func coldSet(t testing.TB, limit int, prices []float64) siblingSet {
	t.Helper()
	var s siblingSet
	first, err := NewPredictor(siblingParams(t, limit, 0), t0)
	if err != nil {
		t.Fatal(err)
	}
	first.ObserveAll(prices)
	s[0] = first
	for i := 1; i < len(s); i++ {
		if s[i], err = first.Sibling(siblingParams(t, limit, i), nil, prices); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// extendSet extends a set the way the service's incremental refresh does:
// a clone of the first observes gap, and every other is its Sibling over
// its predecessor. all ends with gap.
func extendSet(t testing.TB, old siblingSet, gap, all []float64) siblingSet {
	t.Helper()
	var s siblingSet
	first := old[0].Clone()
	first.ObserveAll(gap)
	s[0] = first
	var err error
	for i := 1; i < len(s); i++ {
		if s[i], err = first.Sibling(old[i].params, old[i], all); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// restoreSet saves a set and loads it back from a series holding prices,
// the way RestoreSnapshot does: every later predictor is offered the
// first restored one's window.
func restoreSet(t testing.TB, old siblingSet, prices []float64) siblingSet {
	t.Helper()
	series := &history.Series{Start: t0, Step: old[0].step, Prices: prices}
	var s siblingSet
	for i, p := range old {
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var err error
		if s[i], err = LoadPredictor(&buf, series, s[0]); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// independentSet builds each probability's predictor on its own from
// every price: the oracle a set must match.
func independentSet(t testing.TB, limit int, prices []float64) siblingSet {
	t.Helper()
	var s siblingSet
	for i := range s {
		p, err := NewPredictor(siblingParams(t, limit, i), t0)
		if err != nil {
			t.Fatal(err)
		}
		p.ObserveAll(prices)
		s[i] = p
	}
	return s
}

// checkShared requires every later predictor of a set to share every full
// chunk of the first one's window and to own a copy of its partly filled
// tail, and each predictor to equal the independently built oracle
// (checkSame).
func checkShared(t testing.TB, what string, got, want siblingSet) {
	t.Helper()
	w0 := &got[0].win
	for i := 1; i < len(got); i++ {
		w := &got[i].win
		if w.off != w0.off || w.n != w0.n || w.limit != w0.limit || len(w.chunks) != len(w0.chunks) {
			t.Fatalf("%s: p=%v window layout (off %d, n %d, limit %d, %d chunks) differs from the first's (%d, %d, %d, %d)",
				what, siblingProbs[i], w.off, w.n, w.limit, len(w.chunks), w0.off, w0.n, w0.limit, len(w0.chunks))
		}
		for k := range w.chunks {
			full := (k+1)*chunkTicks <= w.end()
			if same := w.chunks[k] == w0.chunks[k]; same != full {
				t.Fatalf("%s: p=%v chunk %d of %d: shared=%v, full=%v", what, siblingProbs[i], k, len(w.chunks), same, full)
			}
		}
	}
	for i := range got {
		checkSame(t, fmt.Sprintf("%s: p=%v", what, siblingProbs[i]), got[i], want[i])
	}
}

// checkSame requires g to hold o's window ticks and clock and to save,
// tabulate and walk bit-identically to it.
func checkSame(t testing.TB, what string, g, o *Predictor) {
	t.Helper()
	if !slices.Equal(g.win.ticks(), o.win.ticks()) {
		t.Fatalf("%s: window ticks differ from the oracle's", what)
	}
	if g.count != o.count || !g.start.Equal(o.start) || g.Len() != o.Len() {
		t.Fatalf("%s: clock (%d ticks from %v) differs from the oracle's (%d from %v)", what, g.count, g.start, o.count, o.start)
	}
	gt, gOK := g.Oldest()
	ot, oOK := o.Oldest()
	if gOK != oOK || !gt.Equal(ot) {
		t.Fatalf("%s: Oldest %v, oracle %v", what, gt, ot)
	}
	var gs, os bytes.Buffer
	if err := g.Save(&gs); err != nil {
		t.Fatal(err)
	}
	if err := o.Save(&os); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gs.Bytes(), os.Bytes()) {
		t.Fatalf("%s: Save differs from the oracle's:\n%s\n%s", what, gs.Bytes(), os.Bytes())
	}
	gtab, gok := g.Table()
	otab, ook := o.Table()
	if gok != ook || !reflect.DeepEqual(gtab, otab) {
		t.Fatalf("%s: Table differs from the oracle's", what)
	}
	gsf, gok := g.Surface()
	osf, ook := o.Surface()
	if gok != ook || (gok && (!slices.Equal(gsf.Bids, osf.Bids) || !slices.Equal(gsf.Guar, osf.Guar))) {
		t.Fatalf("%s: Surface differs from the oracle's", what)
	}
}

// siblingPrices draws n prices, off the tick grid (randomPrices), with
// the defects planted: NaN, +Inf, 0 and a negative price, each at the
// given positions modulo n.
func siblingPrices(rng *rand.Rand, n int, at ...int) []float64 {
	prices := randomPrices(rng, n)
	defects := []float64{math.NaN(), math.Inf(1), 0, -1}
	for j, i := range at {
		prices[i%n] = defects[j%len(defects)]
	}
	return prices
}

// TestSiblingSharesWindow builds a market's predictors at three
// probabilities along every path the service takes (cold; incremental
// with a gap that crosses a chunk boundary; a gap at least MaxHistory
// long; restore, and a refresh after it) and requires each set to share
// one window and to match predictors built on their own from every price.
// The prices lie off the tick grid, and NaN, +Inf, 0 and a negative price
// appear first, at the oldest retained tick, mid-window, and in gaps. A
// set is checked again after its successor was built from it, so a write
// to a shared chunk or to a predecessor's tail fails the test.
func TestSiblingSharesWindow(t *testing.T) {
	for _, limit := range []int{0, 500, DefaultMaxHistory} {
		for _, lead := range []string{"clean", "defects-first"} {
			t.Run(fmt.Sprintf("max%d/%s", limit, lead), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(limit) + 7))
				window := limit
				if window == 0 {
					window = DefaultMaxHistory
				}
				// Defects mid-window and at the oldest tick a 500 window
				// retains.
				all := siblingPrices(rng, 3*chunkTicks+200, 2*chunkTicks, 3*chunkTicks+200-500, 3*chunkTicks+50)
				if lead == "defects-first" {
					copy(all, []float64{math.NaN(), -1, 0, math.Inf(1)})
				}
				cold := coldSet(t, limit, all)
				checkShared(t, "cold", cold, independentSet(t, limit, all))

				// A gap across a chunk boundary, with defects at its start
				// and at the oldest tick a 500 window retains.
				gap := siblingPrices(rng, chunkTicks+100, 0, 333, chunkTicks+100-500)
				all = append(all, gap...)
				atRestore := all
				incr := extendSet(t, cold, gap, all)
				checkShared(t, "incremental across a chunk", incr, independentSet(t, limit, all))

				restored := restoreSet(t, incr, all)
				checkShared(t, "restore", restored, independentSet(t, limit, all))

				gap = siblingPrices(rng, 5, 1)
				all = append(all, gap...)
				after := extendSet(t, restored, gap, all)
				checkShared(t, "refresh after restore", after, independentSet(t, limit, all))

				gap = siblingPrices(rng, window+37, 37, window/2, window+36)
				all = append(all, gap...)
				whole := extendSet(t, after, gap, all)
				want := independentSet(t, limit, all)
				checkShared(t, "gap of a whole window", whole, want)

				// Predecessors are unchanged by what was built from them.
				checkShared(t, "restore, re-checked", restored, independentSet(t, limit, atRestore))
				checkShared(t, "whole-window set, re-checked", whole, want)
			})
		}
	}
}

// TestSiblingRejectsMismatch pins Sibling's O(1) clock checks: another
// MaxHistory, a predecessor at another clock or with other parameters,
// and too few prices are errors, not a wrong predictor.
func TestSiblingRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	all := randomPrices(rng, 2000)
	set := coldSet(t, 500, all[:1500])
	first := set[0].Clone()
	first.ObserveAll(all[1500:])
	if _, err := first.Sibling(siblingParams(t, 600, 1), nil, all); err == nil {
		t.Error("sibling with another MaxHistory built")
	}
	if _, err := first.Sibling(siblingParams(t, 500, 1), set[2], all); err == nil {
		t.Error("predecessor with other parameters accepted")
	}
	ahead := first.Clone()
	ahead.ObserveAll(all[:3])
	if _, err := first.Sibling(siblingParams(t, 500, 1), ahead, all); err == nil {
		t.Error("predecessor ahead of the clock accepted")
	}
	if _, err := first.Sibling(siblingParams(t, 500, 1), nil, all[:1999]); err == nil {
		t.Error("cold sibling built from too few prices")
	}
	if _, err := first.Sibling(siblingParams(t, 500, 1), set[1], all[:499]); err == nil {
		t.Error("incremental sibling built from too few prices")
	}
	if _, err := first.Sibling(siblingParams(t, 500, 1), set[1], all); err != nil {
		t.Errorf("matching predecessor refused: %v", err)
	}
}

// TestLoadPredictorSharesOnlyMatchingWindow offers LoadPredictor a
// sibling whose window does not match the saved one (another clock, and
// another MaxHistory): the restore must re-slice its own window and still
// equal the saved predictor.
func TestLoadPredictorSharesOnlyMatchingWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	all := randomPrices(rng, 4000)
	series := &history.Series{Start: t0, Step: spot.UpdatePeriod, Prices: all}
	saved := coldSet(t, 1500, all)[1]
	var buf bytes.Buffer
	if err := saved.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for name, sib := range map[string]*Predictor{
		"behind":      coldSet(t, 1500, all[:3990])[0],
		"max history": coldSet(t, 1400, all)[0],
	} {
		got, err := LoadPredictor(bytes.NewReader(buf.Bytes()), series, sib)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.win.chunks[0] == sib.win.chunks[0] {
			t.Errorf("%s: restored window shares a non-matching sibling's chunk", name)
		}
		checkSame(t, name, got, saved)
	}
}

// fuzzSiblings is FuzzTickWindow's sibling lane. Each op extends a
// market's predictor set by a run of fuzzPrices (op%3 == 0), restores
// it from every price so far (1) or rebuilds it cold from them (2), and
// the set must then share one window and match predictors at each
// probability fed every run on their own (checkShared). A set whose first
// predictor holds no tick yet is rebuilt cold, as the service does.
func fuzzSiblings(t *testing.T, limit int, rng *rand.Rand, ops []byte) {
	if len(ops) > 12 {
		ops = ops[:12]
	}
	var all []float64
	set := coldSet(t, limit, nil)
	oracle := independentSet(t, limit, nil)
	for step, op := range ops {
		kind := op % 3
		if set[0].count == 0 {
			kind = 2
		}
		var gap []float64
		if kind != 1 {
			// Runs up to a few chunks: longer than every small limit, and
			// cheap enough to fuzz.
			gap = fuzzPrices(rng, runLengths[int(op>>2)%7])
			all = append(all, gap...)
			for _, p := range oracle {
				p.ObserveAll(gap)
			}
		}
		switch kind {
		case 0:
			set = extendSet(t, set, gap, all)
		case 1:
			set = restoreSet(t, set, all)
		case 2:
			set = coldSet(t, limit, all)
		}
		checkShared(t, fmt.Sprintf("step %d (op %d)", step, kind), set, oracle)
	}
}
