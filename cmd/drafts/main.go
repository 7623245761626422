// Command drafts regenerates the paper's evaluation (§4) and the studies
// around it against the repository's market simulator, and writes
// synthetic price histories to disk:
//
//	drafts [-seed N] [-log-level L] NAME... | all
//	drafts [-seed N] [-log-level L] marketgen [-out DIR] [-days 151] [-combos N] [-format csv|json]
//
// NAME is one of table1 figure1 table4 table5 figure2 figure3 figure4
// table2 table3 impact hosting; "all" runs them in that order. Every run
// is at the paper's scale and deterministic. -seed 0 keeps each
// experiment's documented seeds (marketgen's is 42); any other value
// replaces them all. The Table-1 family (table1, figure1, table4, table5)
// backtests all 452 combos once per probability, ~11 s each on 2 vCPUs.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/drafts-go/drafts/internal/history"
	"github.com/drafts-go/drafts/internal/pricegen"
	"github.com/drafts-go/drafts/internal/spot"
	"github.com/drafts-go/drafts/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "drafts:", err)
		os.Exit(1)
	}
}

// run executes one command line, writing results to stdout and logs to
// stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("drafts", flag.ContinueOnError)
	seed := fs.Int64("seed", 0, "replace every experiment's paper seed (0 = keep them)")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := telemetry.NewLogger(os.Stderr, *logLevel, false)
	slog.SetDefault(logger)
	names := fs.Args()
	if len(names) > 0 && names[0] == "marketgen" {
		return marketgen(logger, names[1:], *seed)
	}
	var chosen []experiment
	for _, name := range names {
		n := len(chosen)
		for _, e := range experiments {
			if name == "all" || name == e.name {
				chosen = append(chosen, e)
			}
		}
		if len(chosen) == n {
			return fmt.Errorf("unknown experiment %q; want %s", name, usage())
		}
	}
	if len(chosen) == 0 {
		return fmt.Errorf("no experiment named; want %s", usage())
	}
	l := newLab(paper, *seed, logger)
	for _, e := range chosen {
		if _, err := e.run(l, stdout); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}
	return nil
}

// usage lists the valid command words.
func usage() string {
	names := make([]string, 0, len(experiments)+2)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return "one or more of: " + strings.Join(append(names, "all", "marketgen"), " ")
}

// marketgen writes synthetic Spot price histories, the repository's
// stand-in for the retired EC2 price-history archive: one CSV or JSON
// file per (zone, type) combo, in the layout history.LoadDir reads.
func marketgen(logger *slog.Logger, args []string, seed int64) error {
	fs := flag.NewFlagSet("marketgen", flag.ContinueOnError)
	out := fs.String("out", "marketdata", "output directory")
	days := fs.Int("days", 151, "days of history (90-day lead + the paper's Oct-Dec window)")
	limit := fs.Int("combos", 0, "generate only the first N combos (0 = all 452)")
	format := fs.String("format", "csv", "output format: csv or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *days < 1 {
		return fmt.Errorf("need at least one day")
	}
	if *format != "csv" && *format != "json" {
		return fmt.Errorf("unknown format %q", *format)
	}
	if seed == 0 {
		seed = 42
	}
	combos := spot.Combos()
	if *limit > 0 && *limit < len(combos) {
		combos = combos[:*limit]
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	n := *days * 24 * 12
	gen := pricegen.Generator{Seed: seed}
	for i, c := range combos {
		s, err := gen.Series(c, time.Date(2016, 7, 2, 0, 0, 0, 0, time.UTC), n)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("%s_%s.%s", c.Zone, strings.ReplaceAll(string(c.Type), ".", "-"), *format)
		f, err := os.Create(filepath.Join(*out, name))
		if err != nil {
			return err
		}
		if *format == "csv" {
			err = history.WriteCSV(f, c, s)
		} else {
			err = history.WriteJSON(f, c, s)
		}
		cerr := f.Close()
		if err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
		if (i+1)%50 == 0 || i+1 == len(combos) {
			logger.Info("progress", "written", i+1, "total", len(combos),
				"combo", c.String(), "archetype", pricegen.ArchetypeFor(c).String())
		}
	}
	logger.Info("done", "series", len(combos), "points", n, "dir", *out)
	return nil
}
