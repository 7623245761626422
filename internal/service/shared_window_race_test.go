package service

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/telemetry"
)

// TestServeDuringSharedRefresh serves predictions, advise and fleet from
// installed epochs, and encodes snapshots of them, while refreshes extend
// every combo's predictors from the shared window: the first probability
// clones and appends, the second reads its window. Under -race a write
// to a chunk an installed predictor or a sibling still reads fails the
// test; each refresh crosses a window chunk boundary.
func TestServeDuringSharedRefresh(t *testing.T) {
	st := testStore(t)
	srv, err := New(Config{Source: st, MaxHistory: 9000, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	gen := pricegen.Generator{Seed: 31}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c := testCombos[(g+i)%len(testCombos)]
				q := fmt.Sprintf("zone=%s&type=%s&probability=%v", c.Zone, c.Type, []float64{0.95, 0.99}[i%2])
				var code int
				switch g {
				case 0:
					code, _, _ = getBody(t, h, "/v1/predictions?"+q)
				case 1:
					if code, _, _ = getBody(t, h, "/v1/advise?"+q+"&duration=1h"); code == http.StatusConflict {
						code = http.StatusOK // the combo cannot guarantee an hour
					}
				case 2:
					code, _, _ = postFleet(t, h, `{"duration":"1h","probability":0.99,"count":5}`)
					if _, err := srv.EncodeSnapshot(); err != nil {
						errs <- err
						return
					}
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("reader %d: status %d for %s", g, code, q)
					return
				}
			}
		}(g)
	}
	for r := 0; r < 4; r++ {
		for _, c := range testCombos {
			cur, _ := st.Full(c)
			ext, err := gen.Continue(c, t0, cur.Len(), 700)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range ext.Prices {
				st.Append(c, t0, v)
			}
		}
		before := srv.metrics.refreshIncremental.Value()
		if err := srv.Refresh(); err != nil {
			t.Fatal(err)
		}
		if got := srv.metrics.refreshIncremental.Value() - before; got != uint64(len(testCombos)*len(probabilities)) {
			t.Fatalf("refresh %d: %d incremental predictors, want every one", r, got)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	var msgs []string
	for err := range errs {
		msgs = append(msgs, err.Error())
	}
	if len(msgs) > 0 {
		t.Fatal(strings.Join(msgs, "; "))
	}
}
