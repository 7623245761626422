package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/obfuscate"
	"github.com/drafts-go/drafts/internal/spot"
)

// TestAccountZoneTranslation exercises the §2.2/§3.3 deobfuscation path:
// a client whose account sees permuted zone names must receive the table
// for the correct physical market, labelled with its own zone name.
func TestAccountZoneTranslation(t *testing.T) {
	store := testStore(t)
	mapping := obfuscate.Mapping{
		// This account's "us-east-1b" is physically "us-east-1c" (and
		// vice versa); us-west is identity for the test.
		"us-east-1b": "us-east-1c",
		"us-east-1c": "us-east-1b",
		"us-west-1a": "us-west-1a",
	}
	srv, err := New(Config{
		Source:          store,
		MaxHistory:      9000,
		AccountMappings: map[string]obfuscate.Mapping{"acct-42": mapping},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	plain := &Client{BaseURL: ts.URL}
	mapped := &Client{BaseURL: ts.URL, Account: "acct-42"}

	// The mapped client's "us-east-1b" must return the physical
	// us-east-1c table.
	visible := spot.Combo{Zone: "us-east-1b", Type: "c4.large"}
	physical := spot.Combo{Zone: "us-east-1c", Type: "c4.large"}
	got, err := mapped.Predictions(visible, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Predictions(physical, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != len(want.Points) {
		t.Fatalf("mapped table has %d points, physical has %d", len(got.Points), len(want.Points))
	}
	for i := range got.Points {
		if got.Points[i] != want.Points[i] {
			t.Fatalf("point %d: mapped %+v != physical %+v", i, got.Points[i], want.Points[i])
		}
	}
}

func TestAccountUnknownRejected(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/predictions?zone=us-east-1b&type=c4.large&account=stranger")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("unknown account -> %d, want 403", resp.StatusCode)
	}
}

func TestAccountUnknownZoneRejected(t *testing.T) {
	store := testStore(t)
	srv, err := New(Config{
		Source:          store,
		MaxHistory:      9000,
		AccountMappings: map[string]obfuscate.Mapping{"acct-7": obfuscate.ForAccount("acct-7")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/predictions?zone=nowhere-9z&type=c4.large&account=acct-7")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unmapped zone -> %d, want 400", resp.StatusCode)
	}
}

// TestEndToEndDeobfuscationDiscovery combines the obfuscate package's
// correlation alignment with the service's stored histories: an account
// reconstructs its zone mapping from shared price views, which is exactly
// the preconfiguration step the production service required per client.
func TestEndToEndDeobfuscationDiscovery(t *testing.T) {
	store := testStore(t)
	acct := obfuscate.ForAccount("discovery-client")

	// Two views of the us-east-1 c4.large markets: the account's (zone
	// names permuted by the provider) and the service's canonical one.
	myView := map[spot.Zone]*history.Series{}
	refView := map[spot.Zone]*history.Series{}
	for _, z := range []spot.Zone{"us-east-1b", "us-east-1c"} {
		phys, err := acct.Physical(z)
		if err != nil {
			t.Fatal(err)
		}
		// The test store only holds the b and c zones; map any other
		// physical zone back into the pair for the purposes of the test.
		if _, ok := store.Full(spot.Combo{Zone: phys, Type: "c4.large"}); !ok {
			t.Skipf("account mapping sends %v to %v, outside the two-zone test store", z, phys)
		}
		s, _ := store.Full(spot.Combo{Zone: phys, Type: "c4.large"})
		myView[z] = s
		r, ok := store.Full(spot.Combo{Zone: z, Type: "c4.large"})
		if !ok {
			t.Fatal("no reference series")
		}
		refView[z] = r
	}
	recovered, err := obfuscate.Deobfuscate(myView, refView)
	if err != nil {
		t.Fatal(err)
	}
	for z := range myView {
		want, _ := acct.Physical(z)
		if recovered[z] != want {
			t.Errorf("zone %v: recovered %v, want %v", z, recovered[z], want)
		}
	}
}

// TestAdviseEndpoint exercises /v1/advise end to end, including the
// escalation past the table span and error modes.
func TestAdviseEndpoint(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}
	combo := spot.Combo{Zone: "us-east-1b", Type: "c4.large"}

	quote, err := cl.Advise(combo, 0.99, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if quote.Duration < 30*time.Minute || quote.Bid <= 0 || quote.Probability != 0.99 {
		t.Errorf("quote %+v", quote)
	}
	// The advised bid must agree with the library's own Advise on the
	// same history (the server retains the very predictor that built the
	// table, so they are the same computation).
	table, err := cl.Predictions(combo, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if mb := table.Points[0].Bid; quote.Bid < mb {
		t.Errorf("advised bid %v below table minimum %v", quote.Bid, mb)
	}

	// Unguaranteeable duration -> 409.
	if _, err := cl.Advise(combo, 0.99, 90*24*time.Hour); err == nil {
		t.Error("impossible duration accepted")
	}
	// Missing/invalid parameters.
	for _, path := range []string{
		"/v1/advise?zone=us-east-1b&type=c4.large",                    // no duration
		"/v1/advise?zone=us-east-1b&type=c4.large&duration=yesterday", // bad duration
		"/v1/advise?zone=us-east-1b&type=c4.large&duration=-2h",       // negative
		"/v1/advise?type=c4.large&duration=1h",                        // no zone
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s -> %d, want 400", path, resp.StatusCode)
		}
	}
	// Unknown combo -> 404.
	if _, err := cl.Advise(spot.Combo{Zone: "nowhere-1a", Type: "c4.large"}, 0.99, time.Hour); err == nil {
		t.Error("unknown combo accepted")
	}
}

// TestAdviseConcurrent hammers /v1/advise from many goroutines while a
// refresh swaps the predictors underneath; run with -race.
func TestAdviseConcurrent(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}
	combo := spot.Combo{Zone: "us-east-1b", Type: "c4.large"}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 20; i++ {
				if _, err := cl.Advise(combo, 0.99, 30*time.Minute); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	if err := srv.Refresh(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
