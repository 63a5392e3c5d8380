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

func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintf(w, "Usage: experiments [flags] [")
	for _, c := range subcommands {
		fmt.Fprintf(w, "%s | ", c.name)
	}
	fmt.Fprintf(w, "<id>...]\n\nExperiments:\n")
	for _, s := range experiments.Registry() {
		fmt.Fprintf(w, "  %-12s %s\n", s.ID, s.Desc)
	}
	fmt.Fprintf(w, "\nFlags:\n")
	flag.PrintDefaults()
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
	scale := flag.Float64("scale", 1.0, "workload scale (1 = paper-length runs)")
	seed := flag.Int64("seed", 1, "simulation seed")
	mc := flag.Bool("mc", false, "use Monte-Carlo execution instead of the analytic model")
	csvDir := flag.String("csv", "", "directory to write full traces as CSV (fig5, fig9)")
	parallel := flag.Int("parallel", 1, "worker-pool size for running experiments")
	runFilter := flag.String("run", "", "regexp filtering the selected experiment ids")
	flag.Usage = usage
	flag.Parse()

	opts := experiments.Options{
		Scale:      workload.AppScale(*scale),
		Seed:       *seed,
		MonteCarlo: *mc,
	}

	args := flag.Args()
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
		if err := c.run(args[1:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", c.name, err)
			os.Exit(1)
		}
		return
	}

	// Validate before running anything: an unknown id aborts the whole
	// invocation, exactly like the old sequential loop's first iteration.
	for _, id := range args {
		if _, ok := experiments.Lookup(id); !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try: experiments list)\n", id)
			os.Exit(1)
		}
	}
	if *runFilter != "" {
		re, err := regexp.Compile(*runFilter)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -run pattern: %v\n", err)
			os.Exit(1)
		}
		kept := args[:0]
		for _, id := range args {
			if re.MatchString(id) {
				kept = append(kept, id)
			}
		}
		args = kept
	}

	for i, res := range experiments.RunAll(opts, args, *parallel) {
		if res.Err != nil {
			// res.Err already carries the id prefix.
			fmt.Fprintf(os.Stderr, "%v\n", res.Err)
			os.Exit(1)
		}
		if i > 0 {
			fmt.Println(strings.Repeat("=", 78))
		}
		fmt.Print(res.Rendered)
		if *csvDir != "" {
			if w, ok := res.Report.(experiments.CSVWriter); ok {
				if err := w.WriteCSVTo(*csvDir); err != nil {
					fmt.Fprintf(os.Stderr, "%s: write csv: %v\n", res.ID, err)
					os.Exit(1)
				}
				fmt.Printf("(traces written to %s)\n", *csvDir)
			}
		}
	}
}
