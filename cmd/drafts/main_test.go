package main

import (
	"io"
	"strings"
	"testing"

	"github.com/drafts-go/drafts/internal/history"
)

func TestUnknownExperimentListsNames(t *testing.T) {
	err := run([]string{"table9"}, io.Discard)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, e := range experiments {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("error %q does not list %s", err, e.name)
		}
	}
	if err := run(nil, io.Discard); err == nil {
		t.Error("empty command line accepted")
	}
}

func TestMarketgenWritesLoadableHistories(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-log-level", "error", "marketgen", "-combos", "2", "-days", "1", "-out", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	store, files, err := history.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(store.Combos()); files != 2 || got != 2 {
		t.Fatalf("loaded %d files holding %d series, want 2 and 2", files, got)
	}
}
