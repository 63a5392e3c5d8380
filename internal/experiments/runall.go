package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
)

// Result is one experiment's outcome under RunAll: the report and its
// pre-rendered text (so deterministic byte comparison needs no further
// calls), or the error, plus the runner's wall-clock and heap-allocation
// stats (bench/ reads them as experiments.*_ms and
// experiments.allocs_per_pass).
type Result struct {
	ID       string
	Report   Report
	Rendered string
	Err      error
	// WallSeconds is the experiment's wall-clock run time.
	WallSeconds float64
	// Allocs is the process-wide heap-allocation count delta over the run
	// (runtime.MemStats.Mallocs). It is exact when parallel = 1; under a
	// parallel pool concurrent experiments' traffic lands in whichever
	// delta is open, so treat it as an upper bound.
	Allocs uint64
}

// RunAll executes the named experiments on a pool of `parallel` workers
// (min 1) and returns the results in input order. An unknown id yields a
// Result with Err set; execution errors land the same way — RunAll itself
// never fails.
//
// Determinism and the seeding convention: every experiment builds its
// entire world — machines, workloads, RNG streams — from Options alone.
// All randomness descends from Options.Seed through fixed offsets (a
// serving station's request sizes from its machine's seed + 17,
// netcluster node i from Seed+i, and so on); nothing is shared mutably
// between experiments and nothing reads global RNG or wall-clock state
// into results. Two RunAll calls with equal Options and ids therefore
// produce byte-identical Rendered output for ANY worker count, including
// compared against the plain sequential loop — the property the parallel
// harness rests on and TestRunAllParallelDeterminism pins for every
// registered experiment.
func RunAll(opts Options, ids []string, parallel int) []Result {
	results := make([]Result, len(ids))
	engine.ForEachIndex(len(ids), parallel, func(i int) { results[i] = runOne(opts, ids[i]) })
	return results
}

// runOne executes a single experiment with timing and allocation stats.
func runOne(opts Options, id string) Result {
	res := Result{ID: id}
	spec, ok := Lookup(id)
	if !ok {
		res.Err = fmt.Errorf("unknown experiment %q (try: experiments list)", id)
		return res
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rep, err := spec.Run(opts)
	res.WallSeconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	res.Allocs = after.Mallocs - before.Mallocs
	if err != nil {
		res.Err = fmt.Errorf("%s: %w", id, err)
		return res
	}
	res.Report = rep
	res.Rendered = rep.Render()
	return res
}
