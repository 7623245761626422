package qbets_test

import (
	"math"
	"testing"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/qbets"
	"github.com/drafts-go/drafts/internal/spot"
)

var boundSink float64

// BenchmarkObserveNewLevelEveryTick is the worst case for a store sized to
// the levels present: a price predictor with a full core.DefaultMaxHistory
// window in which every observation is a price the window does not hold,
// so each Observe adds one level and evicts another. Level i*7919 mod
// 39989 repeats only every 39989 ticks, longer than the window, and stays
// under $4, inside the Fenwick grid's initial span.
func BenchmarkObserveNewLevelEveryTick(b *testing.B) {
	const tick = spot.PriceTick
	for _, bc := range []struct {
		name  string
		store func() qbets.OrderStats
	}{
		{"levels", func() qbets.OrderStats { return qbets.NewLevelStore(tick) }},
		{"fenwick", func() qbets.OrderStats { return qbets.NewFenwickStore(tick, 4) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			price := func(i int) float64 { return float64((i*7919)%39989) * tick }
			p := qbets.MustNew(qbets.Config{
				Kind: qbets.UpperBound, Quantile: math.Sqrt(0.99), Confidence: 0.99,
				MaxHistory: core.DefaultMaxHistory, NewStore: bc.store,
			})
			for i := 0; i < core.DefaultMaxHistory; i++ {
				p.Observe(price(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Observe(price(core.DefaultMaxHistory + i))
				boundSink, _ = p.Bound()
			}
			b.StopTimer()
			b.ReportMetric(float64(p.Len()), "window")
		})
	}
}
