package store

import (
	"testing"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/spot"
)

// BenchmarkAppendSeries seeds a fresh WAL with four 90-day series, the
// bootstrap draftsd runs when its data directory is empty.
func BenchmarkAppendSeries(b *testing.B) {
	gen := pricegen.Generator{Seed: 31}
	const ticks = 90 * 24 * 12
	combos := []spot.Combo{
		{Zone: "us-east-1a", Type: "m3.medium"},
		{Zone: "us-east-1a", Type: "c3.large"},
		{Zone: "us-east-1b", Type: "m3.medium"},
		{Zone: "us-east-1b", Type: "c3.large"},
	}
	series := make([]*history.Series, len(combos))
	for i, c := range combos {
		ser, err := gen.Series(c, walT0, ticks)
		if err != nil {
			b.Fatal(err)
		}
		series[i] = ser
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := Open(b.TempDir(), Options{Fsync: FsyncNone})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j, c := range combos {
			if err := st.AppendSeries(c, series[j]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
