package repro_test

// End-to-end integration and property tests across the full stack:
// randomised scenarios checked against the system-level invariants the
// paper's mechanism must guarantee — budget compliance after one
// scheduling period, no cascade when informed, determinism, and monotone
// counters — regardless of workload mix, budget trajectory or seed.

import (
	"math/rand"
	"testing"

	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/workload"
)

// randomScenario builds a machine with a random workload mix and a random
// budget trajectory, all derived from one seed.
func randomScenario(t *testing.T, seed int64) (*machine.Machine, *fvsst.Driver, *fvsst.Scheduler) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mcfg := machine.P630Config()
	mcfg.Seed = seed
	m, err := machine.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	apps := []func(workload.AppScale) workload.Program{
		workload.Gzip, workload.Gap, workload.Mcf, workload.Health,
	}
	for cpu := 0; cpu < m.NumCPUs(); cpu++ {
		if rng.Intn(4) == 0 {
			continue // leave idle
		}
		nJobs := 1 + rng.Intn(2)
		var progs []workload.Program
		for j := 0; j < nJobs; j++ {
			progs = append(progs, apps[rng.Intn(len(apps))](workload.AppScale(0.05+0.1*rng.Float64())))
		}
		mix, err := workload.NewMix(progs...)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetMix(cpu, mix); err != nil {
			t.Fatal(err)
		}
	}
	cfg := fvsst.DefaultConfig()
	cfg.UseIdleSignal = rng.Intn(2) == 0
	s, err := fvsst.New(cfg, m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	drv := fvsst.NewDriver(m, s)

	// Random budget trajectory: 1–3 events, each ≥ the 4×9 W floor.
	var events []power.BudgetEvent
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		events = append(events, power.BudgetEvent{
			At:     0.3 + rng.Float64()*2,
			Budget: units.Watts(40 + rng.Float64()*520),
		})
	}
	budgets, err := power.NewBudgetSchedule(units.Watts(560), events...)
	if err != nil {
		t.Fatal(err)
	}
	drv.Budgets = budgets
	return m, drv, s
}

// TestBudgetComplianceProperty: across random scenarios, one scheduling
// period after any decision with BudgetMet, the machine's actual processor
// power is at or under the budget (small tolerance for throttle duty
// quantisation).
func TestBudgetComplianceProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		m, drv, s := randomScenario(t, seed)
		for step := 0; step < 300; step++ {
			if err := drv.Step(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			d, ok := s.LastDecision()
			if !ok || !d.BudgetMet {
				continue
			}
			// Give actuation one quantum to settle past throttle latency.
			if m.Now()-d.At < 2*m.Config().Quantum {
				continue
			}
			if got := m.TotalCPUPower(); got > d.Budget+units.Watts(3) {
				t.Fatalf("seed %d t=%.2f: power %v above met budget %v", seed, m.Now(), got, d.Budget)
			}
		}
	}
}

// TestSchedulerDeterminism: identical seeds produce identical decision
// logs across the whole stack.
func TestSchedulerDeterminism(t *testing.T) {
	run := func() []fvsst.Decision {
		_, drv, s := randomScenario(t, 42)
		for step := 0; step < 200; step++ {
			if err := drv.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return s.Decisions()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("decision counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].Budget != b[i].Budget || a[i].TablePower != b[i].TablePower {
			t.Fatalf("decision %d differs: %+v vs %+v", i, a[i], b[i])
		}
		for cpu := range a[i].Assignments {
			if a[i].Assignments[cpu] != b[i].Assignments[cpu] {
				t.Fatalf("decision %d cpu %d differs", i, cpu)
			}
		}
	}
}

// TestCountersMonotoneProperty: the counter surface never runs backwards
// under any scenario — the invariant the sampler depends on.
func TestCountersMonotoneProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		m, drv, _ := randomScenario(t, seed+100)
		prev := make([]struct {
			instr, cycles uint64
		}, m.NumCPUs())
		for step := 0; step < 150; step++ {
			if err := drv.Step(); err != nil {
				t.Fatal(err)
			}
			for cpu := 0; cpu < m.NumCPUs(); cpu++ {
				s, err := m.ReadCounters(cpu)
				if err != nil {
					t.Fatal(err)
				}
				if s.Instructions < prev[cpu].instr || s.Cycles < prev[cpu].cycles {
					t.Fatalf("seed %d cpu %d: counters ran backwards", seed, cpu)
				}
				prev[cpu].instr = s.Instructions
				prev[cpu].cycles = s.Cycles
			}
		}
	}
}

// TestVoltageAlwaysSufficientProperty: every decision assigns each
// processor at least the table's minimum voltage for its frequency — the
// Step 3 guarantee that the paper's voltage scheduling never undervolts.
func TestVoltageAlwaysSufficientProperty(t *testing.T) {
	table := power.PaperTable1()
	for seed := int64(1); seed <= 4; seed++ {
		_, drv, s := randomScenario(t, seed+200)
		for step := 0; step < 200; step++ {
			if err := drv.Step(); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range s.Decisions() {
			for _, a := range d.Assignments {
				i := table.IndexOf(a.Actual)
				if i < 0 {
					t.Fatalf("off-grid actual frequency %v", a.Actual)
				}
				if min := table.VoltageAtIndex(i); a.Voltage < min {
					t.Fatalf("undervolted: %v < %v at %v", a.Voltage, min, a.Actual)
				}
			}
		}
	}
}

// TestInformedSystemNeverCascades: across random failure times, a system
// whose budget schedule reflects the §2 supply failure never cascades,
// provided ΔT exceeds one scheduling period plus actuation.
func TestInformedSystemNeverCascades(t *testing.T) {
	sys := power.MotivatingSystem()
	cpuBudget, ok := sys.CPUBudgetFor(units.Watts(480))
	if !ok {
		t.Fatal("infeasible base load")
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		failAt := 0.2 + rng.Float64()
		mcfg := machine.P630Config()
		mcfg.Seed = seed
		m, err := machine.New(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		for cpu := 0; cpu < 4; cpu++ {
			mix, err := workload.NewMix(workload.Gap(0.5))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.SetMix(cpu, mix); err != nil {
				t.Fatal(err)
			}
		}
		s, err := fvsst.New(fvsst.DefaultConfig(), m, units.Watts(560))
		if err != nil {
			t.Fatal(err)
		}
		drv := fvsst.NewDriver(m, s)
		budgets, err := power.NewBudgetSchedule(units.Watts(560),
			power.BudgetEvent{At: failAt, Budget: cpuBudget})
		if err != nil {
			t.Fatal(err)
		}
		drv.Budgets = budgets
		plant := power.MotivatingPlant(0.5)
		drv.Plant = plant
		if err := drv.Run(failAt); err != nil {
			t.Fatal(err)
		}
		if err := plant.FailSupply("PS0"); err != nil {
			t.Fatal(err)
		}
		if err := drv.Run(failAt + 2); err != nil {
			t.Fatalf("seed %d (failure at %.2fs): %v", seed, failAt, err)
		}
	}
}
