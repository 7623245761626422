package qbets

import (
	"math"
	"sync"

	"github.com/drafts-go/drafts/internal/stats"
)

// changePoints holds the verdicts of the two change-point tests for every
// count a trailing window of W observations can produce. Both tests are
// pure functions of the count, W, the violation probability and α, so
// one table serves every predictor with those parameters and no tick
// evaluates an incomplete-beta function.
type changePoints struct {
	// exceed[v] reports whether v violations in the window are
	// implausibly many under the stationarity hypothesis: with the bound
	// at (or beyond) the target quantile, violations occur with
	// probability at most viol, so the count is stochastically dominated
	// by a Binomial(W, viol) variable.
	exceed []bool
	// median[a] reports whether a of the window's observations above the
	// history's median reject, at level α, the two-sided sign test of a
	// Binomial(W, 1/2) count.
	median []bool
}

type changePointKey struct {
	w           int
	viol, alpha uint64
}

var changePointCache sync.Map // changePointKey -> *changePoints

// changePointTables returns the shared tables for window w, violation
// probability viol and significance alpha, building them on first use.
func changePointTables(w int, viol, alpha float64) *changePoints {
	key := changePointKey{w, math.Float64bits(viol), math.Float64bits(alpha)}
	if cp, ok := changePointCache.Load(key); ok {
		return cp.(*changePoints)
	}
	cp := &changePoints{exceed: make([]bool, w+1), median: make([]bool, w+1)}
	alpha2 := alpha / 2
	for v := 0; v <= w; v++ {
		cp.exceed[v] = stats.BinomialSF(v, w, viol) < alpha
		cp.median[v] = stats.BinomialSF(v, w, 0.5) < alpha2 || stats.BinomialCDF(v, w, 0.5) < alpha2
	}
	got, _ := changePointCache.LoadOrStore(key, cp)
	return got.(*changePoints)
}
