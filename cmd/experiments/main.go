// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [flags] [<subcommand> | all | <id>...]
//
// The subcommand names, the experiment ids, their descriptions and the
// usage text all come from the subcommands table below and the registry
// in internal/experiments (run `experiments -h` or `experiments list` to
// see them); this comment deliberately does not duplicate either list, so
// it cannot go stale.
//
// `-parallel N` runs the selected experiments on an N-worker pool. Every
// experiment derives all of its randomness from -seed alone and shares no
// state, so the rendered output is byte-identical at any worker count.
// `-run <regex>` filters the selection by id.
// `optgap` measures the paper's greedy Step 2 against the exact optimal
// comparator across a scenario corpus.
// `report` renders the energy & compliance ledger from a JSONL trace.
//
// Performance is measured by `go run ./bench` (see bench/README.md), not
// by this command.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// subcommand is one first-argument keyword. The usage line and main's
// dispatch both read the subcommands table, so they cannot disagree.
type subcommand struct {
	name string
	// run handles the remaining arguments, prints to out and ends the
	// invocation. It is nil for `all`, which only expands to every
	// registered id.
	run func(args []string, out io.Writer) error
}

var subcommands = []subcommand{
	{"list", runList},
	{"all", nil},
	{"soak", runSoak},
	{"optgap", runOptGap},
	{"report", runReport},
}

// settings are the global flags the experiment path reads.
type settings struct {
	scale     float64
	seed      int64
	mc        bool
	csvDir    string
	parallel  int
	runFilter string
}

// flags declares the global flags on a new flag set whose usage text goes
// to w.
func flags(w io.Writer) (*flag.FlagSet, *settings) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	fs.SetOutput(w)
	s := &settings{}
	fs.Float64Var(&s.scale, "scale", 1.0, "workload scale (1 = paper-length runs)")
	fs.Int64Var(&s.seed, "seed", 1, "simulation seed")
	fs.BoolVar(&s.mc, "mc", false, "use Monte-Carlo execution instead of the analytic model")
	fs.StringVar(&s.csvDir, "csv", "", "directory to write full traces as CSV (fig5, fig9)")
	fs.IntVar(&s.parallel, "parallel", 1, "worker-pool size for running experiments")
	fs.StringVar(&s.runFilter, "run", "", "regexp filtering the selected experiment ids")
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintf(w, "Usage: experiments [flags] [")
		for _, c := range subcommands {
			fmt.Fprintf(w, "%s | ", c.name)
		}
		fmt.Fprintf(w, "<id>...]\n\nExperiments:\n")
		for _, s := range experiments.Registry() {
			fmt.Fprintf(w, "  %-12s %s\n", s.ID, s.Desc)
		}
		fmt.Fprintf(w, "\nFlags:\n")
		fs.PrintDefaults()
	}
	return fs, s
}

func runList(_ []string, out io.Writer) error {
	ids := experiments.IDs()
	sort.Strings(ids)
	for _, id := range ids {
		s, _ := experiments.Lookup(id)
		fmt.Fprintf(out, "  %-12s %s\n", id, s.Desc)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses the global flags from args, then hands the rest to a
// subcommand or runs the selected experiments, printing to out. A -scale
// that is not finite and positive, an unknown id and a -run that selects
// nothing are errors before anything runs.
func run(args []string, out io.Writer) error {
	fs, s := flags(os.Stderr)
	fs.Parse(args) // ExitOnError: a bad flag exits with the usage text
	if !(s.scale > 0) || math.IsInf(s.scale, 1) {
		return fmt.Errorf("-scale %v: want a finite positive workload scale", s.scale)
	}
	opts := experiments.Options{
		Scale:      workload.AppScale(s.scale),
		Seed:       s.seed,
		MonteCarlo: s.mc,
	}

	args = fs.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}
	for _, c := range subcommands {
		if c.name != args[0] {
			continue
		}
		if c.run == nil {
			args = experiments.IDs()
			break
		}
		if err := c.run(args[1:], out); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		return nil
	}

	for _, id := range args {
		if _, ok := experiments.Lookup(id); !ok {
			return fmt.Errorf("unknown experiment %q (try: experiments list)", id)
		}
	}
	if s.runFilter != "" {
		re, err := regexp.Compile(s.runFilter)
		if err != nil {
			return fmt.Errorf("bad -run pattern: %w", err)
		}
		kept := args[:0]
		for _, id := range args {
			if re.MatchString(id) {
				kept = append(kept, id)
			}
		}
		if len(kept) == 0 {
			return fmt.Errorf("-run %q selects no experiment", s.runFilter)
		}
		args = kept
	}

	for i, res := range experiments.RunAll(opts, args, s.parallel) {
		if res.Err != nil {
			return res.Err // already prefixed with the id
		}
		if i > 0 {
			fmt.Fprintln(out, strings.Repeat("=", 78))
		}
		fmt.Fprint(out, res.Rendered)
		if s.csvDir != "" {
			if w, ok := res.Report.(experiments.CSVWriter); ok {
				if err := w.WriteCSVTo(s.csvDir); err != nil {
					return fmt.Errorf("%s: write csv: %w", res.ID, err)
				}
				fmt.Fprintf(out, "(traces written to %s)\n", s.csvDir)
			}
		}
	}
	return nil
}
