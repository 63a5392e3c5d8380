package fvsst

import (
	"errors"
	"testing"

	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/workload"
)

// loadedMachine builds the §2 motivating system with CPU-bound work on all
// four processors, drawing the full 746 W.
func loadedMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m := quietMachine(t)
	for cpu := 0; cpu < 4; cpu++ {
		mix, err := workload.NewMix(cpuProgram("load", 1e12))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetMix(cpu, mix); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestCascadeWithoutBudgetReduction replays §2 with a scheduler that never
// learns about the failure: the supply fails at t=0.2, the system keeps
// drawing 746 W against the surviving 480 W supply, and after ΔT the second
// supply cascades.
func TestCascadeWithoutBudgetReduction(t *testing.T) {
	m := loadedMachine(t)
	s, err := New(noOverheadConfig(), m, units.Watts(560)) // full budget forever
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	plant := power.MotivatingPlant(0.5)
	drv.Plant = plant

	if err := drv.Run(0.2); err != nil {
		t.Fatalf("healthy phase: %v", err)
	}
	if err := plant.FailSupply("PS0"); err != nil {
		t.Fatal(err)
	}
	err = drv.Run(2.0)
	if !errors.Is(err, ErrCascade) {
		t.Fatalf("expected cascade, got %v", err)
	}
}

// TestFVSSTAvertsCascade is the paper's raison d'être: the same failure,
// but the budget schedule tells the scheduler about the surviving supply's
// 480 W limit (294 W for the CPUs after the 186 W base), and the system
// sheds power within ΔT.
func TestFVSSTAvertsCascade(t *testing.T) {
	m := loadedMachine(t)
	s, err := New(noOverheadConfig(), m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	sys := power.MotivatingSystem()
	cpuBudget, ok := sys.CPUBudgetFor(units.Watts(480))
	if !ok {
		t.Fatal("480W cannot cover the base load")
	}
	budgets, err := power.NewBudgetSchedule(units.Watts(560),
		power.BudgetEvent{At: 0.2, Budget: cpuBudget, Label: "PS0 fails"})
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	drv.Budgets = budgets
	plant := power.MotivatingPlant(0.5)
	drv.Plant = plant

	if err := drv.Run(0.2); err != nil {
		t.Fatalf("healthy phase: %v", err)
	}
	if err := plant.FailSupply("PS0"); err != nil {
		t.Fatal(err)
	}
	if err := drv.Run(3.0); err != nil {
		t.Fatalf("cascade despite fvsst: %v", err)
	}
	// Steady state: system under the surviving supply's capacity, and the
	// workloads still make progress.
	if got := m.SystemPower(); got > units.Watts(480) {
		t.Errorf("system power %v above surviving capacity", got)
	}
	sample, err := m.ReadCounters(0)
	if err != nil {
		t.Fatal(err)
	}
	if sample.Instructions == 0 {
		t.Error("no work retired under the reduced budget")
	}
	// Response time: the budget-change decision lands within ΔT of the
	// failure.
	var reacted bool
	for _, d := range s.Decisions() {
		if d.Trigger == "budget-change" && d.At <= 0.2+0.5 {
			reacted = true
		}
	}
	if !reacted {
		t.Error("no budget-change decision within ΔT")
	}
}

// TestRestorationRaisesBudget checks the reverse trigger: restoring the
// supply restores the full budget and the frequencies climb back.
func TestRestorationRaisesBudget(t *testing.T) {
	m := loadedMachine(t)
	s, err := New(noOverheadConfig(), m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	budgets, err := power.NewBudgetSchedule(units.Watts(560),
		power.BudgetEvent{At: 0.2, Budget: units.Watts(294), Label: "PS0 fails"},
		power.BudgetEvent{At: 1.0, Budget: units.Watts(560), Label: "PS0 restored"},
	)
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	drv.Budgets = budgets
	if err := drv.Run(2.0); err != nil {
		t.Fatal(err)
	}
	if got := m.TotalCPUPower(); got < units.Watts(500) {
		t.Errorf("CPU power %v after restoration, want near 560W again", got)
	}
	d, _ := s.LastDecision()
	for cpu, a := range d.Assignments {
		if a.Actual != units.GHz(1) {
			t.Errorf("cpu %d at %v after restoration", cpu, a.Actual)
		}
	}
}
