// Command fvsst-farm runs the farm power-fail study: three clusters of
// four nodes each run under a hierarchical budget allocator while the
// grid feed fails onto a UPS whose runway governor shrinks the global
// budget as the battery drains. The same scenario is run three times —
// hierarchical least-loss allocation, equal-split leases, and a uniform
// all-processors-one-frequency baseline — and the rendered comparison is
// printed. See docs/farm.md for the allocator design.
//
// Usage examples:
//
//	fvsst-farm
//	fvsst-farm -seed 7 -quiet
//
// The run exits non-zero if the hierarchical policy ever overshoots the
// shrinking budget or fails to hold the configured UPS runway — the two
// properties the farm layer exists to guarantee.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func run(o experiments.Options, w io.Writer) (int, error) {
	r, err := experiments.FarmPowerFail(o)
	if err != nil {
		return 1, err
	}
	fmt.Fprint(w, r.Render())
	h := r.Hierarchical
	if h.OvershootSec > 0 {
		return 1, fmt.Errorf("hierarchical policy overshot the budget for %.2fs", h.OvershootSec)
	}
	if !h.RunwayMet {
		return 1, fmt.Errorf("hierarchical policy missed the UPS runway: min %.2fs of %.0fs", h.MinRunwaySec, r.RunwaySec)
	}
	return 0, nil
}

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale (the farm's programs are endless; kept for option parity)")
	seed := flag.Int64("seed", 1, "simulation seed (machines derive per-node seeds from it)")
	quiet := flag.Bool("quiet", false, "disable latency jitter, contention and throttle settling")
	mc := flag.Bool("mc", false, "use Monte-Carlo execution instead of the analytic model")
	flag.Parse()

	code, err := run(experiments.Options{
		Scale:      workload.AppScale(*scale),
		Seed:       *seed,
		Quiet:      *quiet,
		MonteCarlo: *mc,
	}, os.Stdout)
	if err != nil {
		log.Print(err)
	}
	os.Exit(code)
}
