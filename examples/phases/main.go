// Phases shows fvsst tracking workload phase behaviour (Figure 5): a
// synthetic benchmark alternating CPU- and memory-intensive phases, the
// scheduler's frequency following the measured IPC, and system power
// following the frequency — rendered as ASCII charts.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func main() {
	opts := experiments.Options{Scale: workload.AppScale(0.5), Seed: 7}
	rep, err := experiments.Figure5(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Render())
	fmt.Printf("\nphase transitions tracked: %d\n", rep.Transitions)

	// The full per-quantum traces are exportable as CSV for plotting,
	// the same file cmd/experiments -csv writes.
	dir, err := os.MkdirTemp("", "phases-")
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.WriteCSVTo(dir); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full traces written to %s\n", filepath.Join(dir, "fig5.csv"))
}
