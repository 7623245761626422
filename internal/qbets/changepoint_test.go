package qbets

import (
	"math"
	"testing"

	"github.com/drafts-go/drafts/internal/stats"
)

// TestChangePointTablesMatchBinomial pins every entry of the change-point
// tables to the incomplete-beta comparison it stands for, for the
// windows, violation probabilities and significance levels the
// predictors use.
func TestChangePointTablesMatchBinomial(t *testing.T) {
	for _, w := range []int{1, 8, DefaultChangePointWindow, 500} {
		for _, viol := range []float64{1 - math.Sqrt(0.99), 1 - math.Sqrt(0.95), 0.025, 1 - 0.975, 0.5} {
			for _, alpha := range []float64{DefaultChangePointAlpha, 0.05} {
				cp := changePointTables(w, viol, alpha)
				if len(cp.exceed) != w+1 || len(cp.median) != w+1 {
					t.Fatalf("w=%d: tables of %d and %d entries", w, len(cp.exceed), len(cp.median))
				}
				for v := 0; v <= w; v++ {
					exceed := v > 0 && stats.BinomialSF(v, w, viol) < alpha
					median := stats.BinomialSF(v, w, 0.5) < alpha/2 || stats.BinomialCDF(v, w, 0.5) < alpha/2
					if cp.exceed[v] != exceed || cp.median[v] != median {
						t.Fatalf("w=%d viol=%v alpha=%v count %d: tables say (%v, %v), binomial (%v, %v)",
							w, viol, alpha, v, cp.exceed[v], cp.median[v], exceed, median)
					}
				}
				if changePointTables(w, viol, alpha) != cp {
					t.Fatalf("w=%d viol=%v alpha=%v: a second lookup built a new table", w, viol, alpha)
				}
			}
		}
	}
}

// TestPredictorChangePointProbability: a predictor's exceedance table is
// the one for its stationary violation probability, 1-q above an upper
// bound and q below a lower one, to the bit (1-(1-0.025) is not 0.025).
func TestPredictorChangePointProbability(t *testing.T) {
	for _, cfg := range []Config{
		{Kind: UpperBound, Quantile: math.Sqrt(0.95), Confidence: 0.99, NewStore: treapStore},
		{Kind: LowerBound, Quantile: 0.025, Confidence: 0.99, NewStore: treapStore},
		{Kind: LowerBound, Quantile: 1 - math.Sqrt(0.95), Confidence: 0.95, ChangePointWindow: 8, NewStore: treapStore},
	} {
		p := MustNew(cfg)
		viol := cfg.Quantile
		if cfg.Kind == UpperBound {
			viol = 1 - cfg.Quantile
		}
		if want := changePointTables(p.cfg.ChangePointWindow, viol, p.cfg.ChangePointAlpha); p.cp != want {
			t.Errorf("%v bound on q=%v: change-point tables for another violation probability", cfg.Kind, cfg.Quantile)
		}
	}
}
