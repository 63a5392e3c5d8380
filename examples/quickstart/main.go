// Quickstart: build the paper's 4-way p630, put a memory-bound job on one
// processor, run the fvsst scheduler for two simulated seconds and print
// what it decided. Demonstrates the core loop in ~40 lines: machine →
// workload → scheduler → driver → decisions.
package main

import (
	"fmt"
	"log"

	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	// The experimental platform of §7.1: 4×1 GHz Power4+, Table 1
	// operating points, fetch throttling, hot idle. mcf (SPEC CPU2000)
	// runs on CPU 3; CPUs 0–2 idle hot, as in §8.
	m, err := machine.New(machine.P630Config(), nil, nil, nil, []workload.Program{workload.Mcf(0.5)})
	if err != nil {
		log.Fatal(err)
	}

	// The prototype scheduler: ε = 5%, t = 10 ms, T = 100 ms, full 560 W
	// processor budget.
	sched, err := fvsst.New(fvsst.DefaultConfig(), m, units.Watts(560))
	if err != nil {
		log.Fatal(err)
	}
	drv := fvsst.NewDriver(m, sched)
	if err := drv.Run(2.0); err != nil {
		log.Fatal(err)
	}

	d, ok := sched.LastDecision()
	if !ok {
		log.Fatal("no scheduling decision made")
	}
	fmt.Printf("after %.1fs simulated, budget %v (met: %v)\n", d.At, d.Budget, d.BudgetMet)
	for _, a := range d.Assignments {
		fmt.Printf("  cpu%d: desired %-7v actual %-7v at %v (predicted loss %.1f%%)\n",
			a.CPU, a.Desired, a.Actual, a.Voltage, a.PredictedLoss*100)
	}
	fmt.Printf("system power: %v (vs 746W unmanaged)\n", m.SystemPower())
	fmt.Println()
	fmt.Println("mcf saturates around 650MHz: the scheduler found that frequency from")
	fmt.Println("the performance counters alone, with no knowledge of the program.")
}
