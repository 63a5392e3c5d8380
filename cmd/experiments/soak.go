package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/scenario"
)

// runSoak drives the invariant soak harness: N random cluster scenarios
// through the in-process mirror and the full invariant suite (each
// replayed digest-only and compared for determinism), M differential scenarios
// through both the in-process and networked stacks, K farm-layer
// scenarios through the allocator contract checks, and D engine
// differentials. The cluster scenarios run on the event-skipping engine
// (scenario.RunCluster, the one that ships); -des compares it byte for
// byte with the per-quantum oracle. Exits nonzero on any
// violation, divergence or error; failing cluster seeds are shrunk to a
// minimal reproducer printed with the report, and each one's JSONL trace
// is written to -dump-dir as cluster-seed<N>.jsonl (its path printed on a
// "trace:" line; experiments report renders it). A negative count, or
// zero scenarios of every kind, is an error: such a run checks nothing.
func runSoak(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("soak", flag.ExitOnError)
	seeds := fs.Int("seeds", 25, "cluster invariant scenarios to run")
	diff := fs.Int("diff", 5, "differential (in-process vs networked) scenarios to run")
	farm := fs.Int("farm", 10, "farm-layer scenarios to run")
	des := fs.Int("des", 5, "quantum-vs-DES engine differentials to run")
	baseSeed := fs.Int64("seed", 1, "first seed of every range")
	parallel := fs.Int("parallel", 4, "worker-pool size")
	wall := fs.Duration("wall", 0, "wall-clock budget; jobs not started in time are marked skipped (0 = unbounded)")
	sabotage := fs.String("sabotage", "", "inject a deliberate defect into cluster runs (step2-invert); the checkers must catch it")
	shrink := fs.Int("shrink", 400, "max candidate runs when shrinking a failing cluster seed (0 = off)")
	dumpDir := fs.String("dump-dir", os.TempDir(), "directory for the JSONL traces of violating cluster seeds (empty = off)")
	jsonOut := fs.String("json", "", "write the full report as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	counts := []struct {
		flag string
		n    int
	}{{"-seeds", *seeds}, {"-diff", *diff}, {"-farm", *farm}, {"-des", *des}}
	total := 0
	for _, c := range counts {
		if c.n < 0 {
			return fmt.Errorf("%s %d: a scenario count cannot be negative", c.flag, c.n)
		}
		total += c.n
	}
	if total == 0 {
		return fmt.Errorf("-seeds, -diff, -farm and -des are all 0: no scenario selected")
	}

	rep := scenario.Soak(scenario.SoakConfig{
		Seeds:     *seeds,
		DiffSeeds: *diff,
		FarmSeeds: *farm,
		DESSeeds:  *des,
		BaseSeed:  *baseSeed,
		Parallel:  *parallel,
		Wall:      *wall,
		Sabotage:  *sabotage,
		ShrinkMax: *shrink,
		DumpDir:   *dumpDir,
	})

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "soak: %d cluster + %d diff + %d farm + %d des scenarios in %.1fs (parallel=%d)\n",
		*seeds, *diff, *farm, *des, rep.ElapsedSec, *parallel)
	for _, r := range rep.Results {
		if r.Skipped {
			fmt.Fprintf(out, "  %-7s seed %-6d SKIPPED (wall budget)\n", r.Kind, r.Seed)
			continue
		}
		if r.Err != "" {
			fmt.Fprintf(out, "  %-7s seed %-6d ERROR: %s\n", r.Kind, r.Seed, r.Err)
			continue
		}
		if len(r.Violations) == 0 && len(r.Divergences) == 0 {
			continue
		}
		fmt.Fprintf(out, "  %-7s seed %-6d %d violation(s), %d divergence(s)\n",
			r.Kind, r.Seed, len(r.Violations), len(r.Divergences))
		for i, v := range r.Violations {
			if i == 3 {
				fmt.Fprintf(out, "    ... %d more\n", len(r.Violations)-i)
				break
			}
			fmt.Fprintf(out, "    [%s] t=%.3f %s\n", v.Checker, v.At, v.Detail)
		}
		for i, d := range r.Divergences {
			if i == 3 {
				fmt.Fprintf(out, "    ... %d more\n", len(r.Divergences)-i)
				break
			}
			fmt.Fprintf(out, "    divergence r=%d: %s\n", d.Round, d.Detail)
		}
		if r.Trace != "" {
			fmt.Fprintf(out, "    trace: %s\n", r.Trace)
		}
		if r.TraceErr != "" {
			fmt.Fprintf(out, "    trace not written: %s\n", r.TraceErr)
		}
		if r.Shrunk != nil {
			data, _ := json.Marshal(r.Shrunk)
			fmt.Fprintf(out, "    minimal reproducer (%d shrink runs): %s\n", r.ShrinkAttempts, data)
		}
	}
	if rep.Skipped > 0 {
		fmt.Fprintf(out, "  %d job(s) skipped by the -wall budget\n", rep.Skipped)
	}
	if !rep.OK {
		return fmt.Errorf("%d violation(s), %d divergence(s), %d error(s)", rep.Violations, rep.Divergences, rep.Errors)
	}
	fmt.Fprintln(out, "soak: all invariants held")
	return nil
}
