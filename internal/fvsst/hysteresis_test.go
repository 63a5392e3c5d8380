package fvsst

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestConfigRejectsNegativeDebounce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.debouncePasses = -1
	if cfg.Validate() == nil {
		t.Error("negative debounce accepted")
	}
}

// steadyStateChanges counts how many decisions after skipSeconds changed
// CPU 0's actual frequency.
func steadyStateChanges(decisions []Decision, skipSeconds float64) int {
	changes := 0
	started := false
	var prev units.Frequency
	for _, d := range decisions {
		if d.At < skipSeconds {
			continue
		}
		f := d.Assignments[0].Actual
		if started && f != prev {
			changes++
		}
		prev = f
		started = true
	}
	return changes
}

// TestDebounceDampsSteadyStateFlutter runs a noisy borderline workload
// (mcf sits right at the 650-vs-700 MHz decision boundary under jitter)
// with and without the debounce and checks the filtered run flutters less
// in steady state while converging to the same band.
func TestDebounceDampsSteadyStateFlutter(t *testing.T) {
	run := func(debounce int) ([]Decision, units.Frequency) {
		mcfg := machine.P630Config() // full jitter: decisions flutter
		mcfg.Seed = 5
		m, err := machine.New(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		mix, err := workload.NewMix(workload.Mcf(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetMix(0, mix); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Overhead = Overhead{}
		cfg.debouncePasses = debounce
		s, err := New(cfg, m, units.Watts(560))
		if err != nil {
			t.Fatal(err)
		}
		drv := NewDriver(m, s)
		if err := drv.Run(6.0); err != nil {
			t.Fatal(err)
		}
		d, _ := s.LastDecision()
		return s.Decisions(), d.Assignments[0].Actual
	}
	free, freeFinal := run(0)
	damped, dampedFinal := run(3)
	fc, dc := steadyStateChanges(free, 1.0), steadyStateChanges(damped, 1.0)
	if dc > fc {
		t.Errorf("debounce increased steady-state changes: %d > %d", dc, fc)
	}
	for name, f := range map[string]units.Frequency{"free": freeFinal, "damped": dampedFinal} {
		if f < units.MHz(600) || f > units.MHz(800) {
			t.Errorf("%s run ended at %v, outside mcf's band", name, f)
		}
	}
}

// TestDebounceNeverBlocksBudgetEnforcement: a budget drop must be honoured
// within one pass even with a long debounce, because Step 2's downward
// moves are applied after the filter.
func TestDebounceNeverBlocksBudgetEnforcement(t *testing.T) {
	m := quietMachine(t)
	for cpu := 0; cpu < 4; cpu++ {
		mix, _ := workload.NewMix(cpuProgram("cpu", 1e12))
		m.SetMix(cpu, mix)
	}
	cfg := noOverheadConfig()
	cfg.debouncePasses = 5
	s, err := New(cfg, m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	budgets, err := power.NewBudgetSchedule(units.Watts(560),
		power.BudgetEvent{At: 0.3, Budget: units.Watts(100)})
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	drv.Budgets = budgets
	if err := drv.Run(0.32); err != nil {
		t.Fatal(err)
	}
	d, _ := s.LastDecision()
	if d.TablePower > units.Watts(100) {
		t.Errorf("debounce blocked the emergency power drop: %v", d.TablePower)
	}
}

// TestDebounceEventuallyFollowsPhaseChange: a sustained phase change must
// still be tracked, just k passes later.
func TestDebounceEventuallyFollowsPhaseChange(t *testing.T) {
	m := quietMachine(t)
	// One long CPU-bound phase then one long memory-bound phase.
	prog := workload.Program{Name: "shift", Phases: []workload.Phase{
		{Name: "cpu", Alpha: 1.4, Instructions: 1e9},
		memProgram("mem", 1).Phases[0],
	}}
	prog.Phases[1].Instructions = 1e12
	mix, _ := workload.NewMix(prog)
	m.SetMix(0, mix)
	cfg := noOverheadConfig()
	cfg.debouncePasses = 2
	s, err := New(cfg, m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	if err := drv.Run(3.0); err != nil {
		t.Fatal(err)
	}
	d, _ := s.LastDecision()
	f := d.Assignments[0].Actual
	if f < units.MHz(600) || f > units.MHz(700) {
		t.Errorf("debounced scheduler never followed the phase change: at %v", f)
	}
}
