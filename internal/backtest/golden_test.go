package backtest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/core"
	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/spot"
)

// goldenOutcomes pins the SHA-256 of the JSON-encoded Run outcomes for a
// reduced Table 1 campaign: the first 6 catalog combos, 60 requests each,
// a full core.DefaultMaxHistory of lead (so every retention window slides)
// and a 3-day request window. Any change to a bid, a success count or a
// cost anywhere in the pass changes the digest. The digests were recorded
// before the order-statistic rank reuse and the sliding ECDF window went
// in; they prove those optimisations change no result.
var goldenOutcomes = map[string]string{
	"seed=1 p=0.99": "a8074b953b3077ebc5fa4821d9b84bbfe5f1dd23e91bb3615363343fa8cf1f4d",
	"seed=1 p=0.95": "76a7a8192d964b98ee0db166bfa43ef7eef4dc8fc5d516718069a0391f164505",
	"seed=2 p=0.99": "a1699131f42fa09143e6787719e449e4c08c67bf0f1ae8943dc535e6bd7e8cd7",
	"seed=2 p=0.95": "be77e48e3ca61a556bed2cdfba43f20970d263c8af08e7b95ae363539950691c",
}

func TestRunGoldenOutcomes(t *testing.T) {
	const (
		lead       = core.DefaultMaxHistory
		windowDays = 3
	)
	total := lead + windowDays*24*12 + 12*12 + 2 // window + 12h margin, as cmd/drafts
	start := time.Date(2016, 10, 1, 0, 0, 0, 0, time.UTC).Add(-time.Duration(lead) * spot.UpdatePeriod)
	combos := spot.Combos()[:6]
	for _, seed := range []int64{1, 2} {
		gen := pricegen.Generator{Seed: seed}
		series := make(map[spot.Combo][]float64)
		for _, c := range combos {
			s, err := gen.Series(c, start, total)
			if err != nil {
				t.Fatal(err)
			}
			series[c] = s.Prices
		}
		for _, p := range []float64{0.99, 0.95} {
			name := fmt.Sprintf("seed=%d p=%v", seed, p)
			cfg := Config{Probability: p, NumRequests: 60, HistoryLead: lead, Seed: seed, Workers: 2}
			outs, err := Run(cfg, combos, func(c spot.Combo) (*history.Series, error) {
				return &history.Series{Start: start, Step: spot.UpdatePeriod, Prices: series[c]}, nil
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			buf, err := json.Marshal(outs)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf)
			if got := hex.EncodeToString(sum[:]); got != goldenOutcomes[name] {
				t.Errorf("%s: outcome digest %s, want %s", name, got, goldenOutcomes[name])
			}
		}
	}
}
