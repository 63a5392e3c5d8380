// Powerfail replays the paper's motivating example (§2) end to end, twice:
//
//	A 746 W system is fed by two 480 W supplies. At T0 one supply fails.
//	If the system is not under 480 W within ΔT, the second supply
//	cascade-fails and the machine goes dark.
//
// Run 1 keeps the scheduler ignorant of the failure → cascade.
// Run 2 delivers the new budget to fvsst → the processors shed ~270 W
// within one scheduling period and the machine survives, still running
// every workload.
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/workload"
)

const (
	failAt = 0.5 // supply failure time T0, seconds
	deltaT = 0.5 // supply overload tolerance ΔT, seconds
)

func buildMachine() (*machine.Machine, error) {
	// A diverse load: two CPU-bound, two memory-bound jobs.
	return machine.New(machine.P630Config(),
		[]workload.Program{workload.Gzip(0.5)}, []workload.Program{workload.Gap(0.5)},
		[]workload.Program{workload.Mcf(0.5)}, []workload.Program{workload.Health(0.5)})
}

func run(informScheduler bool) error {
	m, err := buildMachine()
	if err != nil {
		return err
	}
	sched, err := fvsst.New(fvsst.DefaultConfig(), m, units.Watts(560))
	if err != nil {
		return err
	}
	drv := fvsst.NewDriver(m, sched)
	plant := power.MotivatingPlant(deltaT)
	drv.Plant = plant

	if informScheduler {
		sys := power.MotivatingSystem()
		cpuBudget, ok := sys.CPUBudgetFor(units.Watts(480))
		if !ok {
			return fmt.Errorf("base load alone exceeds surviving capacity")
		}
		drv.Budgets, err = power.NewBudgetSchedule(units.Watts(560),
			power.BudgetEvent{At: failAt, Budget: cpuBudget, Label: "PS0 failed"})
		if err != nil {
			return err
		}
	}

	if err := drv.Run(failAt); err != nil {
		return err
	}
	fmt.Printf("  t=%.2fs  PS0 fails; surviving capacity 480W, load %v, ΔT=%.1fs\n",
		m.Now(), m.SystemPower(), deltaT)
	if err := plant.FailSupply("PS0"); err != nil {
		return err
	}

	simErr := drv.Run(failAt + 3)
	switch {
	case errors.Is(simErr, fvsst.ErrCascade):
		fmt.Printf("  t=%.2fs  CASCADE: second supply failed, machine down\n", m.Now())
		return nil
	case simErr != nil:
		return simErr
	}
	fmt.Printf("  t=%.2fs  stable at %v (capacity 480W) — cascade averted\n",
		m.Now(), m.SystemPower())
	if d, ok := sched.LastDecision(); ok {
		for _, a := range d.Assignments {
			fmt.Printf("    cpu%d -> %v (predicted loss %.1f%%)\n", a.CPU, a.Actual, a.PredictedLoss*100)
		}
	}
	return nil
}

func main() {
	fmt.Println("run 1: scheduler not informed of the failure")
	if err := run(false); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrun 2: budget drop delivered to fvsst at T0")
	if err := run(true); err != nil {
		log.Fatal(err)
	}
}
