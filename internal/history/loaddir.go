package history

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/drafts-go/drafts/internal/spot"
)

// LoadDir fills a Store from a directory of archived price histories (the
// format cmd/drafts marketgen writes): every *.csv and *.json file holds one
// combo's series. It returns the populated store and how many files were
// loaded; a directory with no loadable histories is an error.
func LoadDir(dir string) (*Store, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	store := NewStore()
	loaded := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ext := strings.ToLower(filepath.Ext(e.Name()))
		if ext != ".csv" && ext != ".json" {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, 0, err
		}
		var combo spot.Combo
		var series *Series
		if ext == ".csv" {
			combo, series, err = ReadCSV(f)
		} else {
			combo, series, err = ReadJSON(f)
		}
		cerr := f.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", e.Name(), err)
		}
		if cerr != nil {
			return nil, 0, cerr
		}
		if err := store.Put(combo, series); err != nil {
			return nil, 0, err
		}
		loaded++
	}
	if loaded == 0 {
		return nil, 0, fmt.Errorf("history: no .csv or .json histories under %s", dir)
	}
	return store, loaded, nil
}
