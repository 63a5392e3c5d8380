// Cluster demonstrates frequency/voltage scheduling across a three-tier
// server cluster (§4.2, §5): a web node, a CPU-bound app node and a
// memory-bound db node, coordinated under one *global* power budget that
// shrinks mid-run (a site-level capping request). The coordinator exploits
// workload diversity: the db tier, saturated by memory latency, absorbs
// most of the reduction at almost no performance cost, while the app tier
// keeps its frequency.
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/units"
)

func main() {
	nodes, err := cluster.Tiered(machine.P630Config(), 0.3)
	if err != nil {
		log.Fatal(err)
	}

	cfg := fvsst.DefaultConfig()
	cfg.UseIdleSignal = true // web tier has idle capacity

	coord, err := cluster.New(cfg, units.Watts(1680), nodes...) // 3×560W unconstrained
	if err != nil {
		log.Fatal(err)
	}
	capping, err := power.NewBudgetSchedule(units.Watts(1680),
		power.BudgetEvent{At: 1.0, Budget: units.Watts(900), Label: "site capping request"},
	)
	if err != nil {
		log.Fatal(err)
	}
	coord.SetBudgetSource(capping)

	report := func(when string) {
		fmt.Printf("%s: t=%.2fs, cluster CPU power %v (budget %v)\n",
			when, coord.Now(), coord.TotalCPUPower(), coord.Budget())
		last, ok := coord.LastDecision()
		if !ok {
			return
		}
		perNode := map[int][]string{}
		for _, a := range last.Assignments {
			perNode[a.Proc.Node] = append(perNode[a.Proc.Node],
				fmt.Sprintf("%v", a.Actual))
		}
		for i, n := range coord.Nodes() {
			fmt.Printf("  %-4s %v\n", n.Name, perNode[i])
		}
	}

	runUntil := func(t float64) {
		for coord.Now() < t {
			if err := coord.Step(); err != nil {
				log.Fatal(err)
			}
		}
	}

	runUntil(1.0)
	report("before cap")
	runUntil(2.5)
	report("after cap")

	fmt.Println("\nthe db tier (memory-bound) absorbed the cap; the app tier kept its clock.")
}
