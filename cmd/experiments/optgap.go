package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

// runOptGap measures the paper's greedy Step 2 against the exact
// optimal comparator across a scenario corpus and renders the gap
// table. Exits nonzero on invariant violations, run errors, a failed
// comparator, or a worst per-pass gap above -max-gap.
func runOptGap(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("optgap", flag.ExitOnError)
	seeds := fs.Int("seeds", 300, "scenario seeds to measure")
	baseSeed := fs.Int64("seed", 1, "first seed of the range")
	parallel := fs.Int("parallel", 4, "worker-pool size")
	maxGap := fs.Float64("max-gap", 0, "fail if any per-pass greedy-vs-optimal gap exceeds this (0 = no gate)")
	jsonOut := fs.String("json", "", "write the full report as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rep, err := experiments.OptGap(experiments.OptGapConfig{
		Seeds:    *seeds,
		BaseSeed: *baseSeed,
		Parallel: *parallel,
	})
	if err != nil {
		return err
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	rep.WriteText(out)

	if rep.Errors > 0 || rep.Violations > 0 {
		return fmt.Errorf("%d error(s), %d violation(s)", rep.Errors, rep.Violations)
	}
	if rep.Total.Broken > 0 {
		return fmt.Errorf("exact comparator failed on %d pass(es): %s", rep.Total.Broken, rep.Total.BrokenDetail)
	}
	if *maxGap > 0 && rep.Total.WorstGap > *maxGap {
		return fmt.Errorf("worst per-pass gap %.9g exceeds -max-gap %g", rep.Total.WorstGap, *maxGap)
	}
	return nil
}
