package repro_test

// End-to-end integration and property tests across the full stack:
// randomised scenarios checked against the system-level invariants the
// paper's mechanism must guarantee — budget compliance after one
// scheduling period, no cascade when informed, determinism, and monotone
// counters — regardless of workload mix, budget trajectory or seed.

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/obs"
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
	apps := []func(workload.AppScale) workload.Program{
		workload.Gzip, workload.Gap, workload.Mcf, workload.Health,
	}
	progs := make([][]workload.Program, mcfg.NumCPUs)
	for cpu := range progs {
		if rng.Intn(4) == 0 {
			continue // leave idle
		}
		nJobs := 1 + rng.Intn(2)
		for j := 0; j < nJobs; j++ {
			progs[cpu] = append(progs[cpu], apps[rng.Intn(len(apps))](workload.AppScale(0.05+0.1*rng.Float64())))
		}
	}
	m, err := machine.New(mcfg, progs...)
	if err != nil {
		t.Fatal(err)
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

// scheduleTrace is a sink that writes each schedule event as one JSONL
// line and drops the spans, whose durations are wall-clock.
type scheduleTrace struct{ w *obs.JSONLWriter }

func (s scheduleTrace) Emit(e obs.Event) {
	if e.Type == obs.EventSchedule {
		s.w.Emit(e)
	}
}

// TestSchedulerDeterminism: identical seeds produce byte-identical
// schedule-event traces across the whole stack.
func TestSchedulerDeterminism(t *testing.T) {
	run := func() string {
		_, drv, s := randomScenario(t, 42)
		var buf bytes.Buffer
		w := obs.NewJSONLWriter(&buf)
		s.SetSink(scheduleTrace{w})
		for step := 0; step < 200; step++ {
			if err := drv.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if n := strings.Count(a, "\n"); n < 20 {
		t.Fatalf("trace holds %d passes, want ≥ 20", n)
	}
	if a != b {
		al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
		for i := 0; i < len(al) && i < len(bl); i++ {
			if al[i] != bl[i] {
				t.Fatalf("pass %d differs:\n%s\n%s", i+1, al[i], bl[i])
			}
		}
		t.Fatalf("the traces hold %d and %d lines", len(al), len(bl))
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
		s.SetSink(voltageCheck{t, table, s})
		for step := 0; step < 200; step++ {
			if err := drv.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// voltageCheck is a sink that checks each pass's Decision, read from the
// scheduler as the pass's schedule event arrives.
type voltageCheck struct {
	t     *testing.T
	table *power.Table
	s     *fvsst.Scheduler
}

func (v voltageCheck) Emit(e obs.Event) {
	if e.Type != obs.EventSchedule {
		return
	}
	d, _ := v.s.LastDecision()
	for _, a := range d.Assignments {
		i := v.table.IndexOf(a.Actual)
		if i < 0 {
			v.t.Fatalf("off-grid actual frequency %v", a.Actual)
		}
		if min := v.table.VoltageAtIndex(i); a.Voltage < min {
			v.t.Fatalf("undervolted: %v < %v at %v", a.Voltage, min, a.Actual)
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
		gap := []workload.Program{workload.Gap(0.5)}
		m, err := machine.New(mcfg, gap, gap, gap, gap)
		if err != nil {
			t.Fatal(err)
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

// TestSchedulersKeepNoPassHistory: a daemon reschedules every period T for
// as long as it runs, so neither in-process scheduler may keep its passes.
// With no sink attached, running n and then 10·n passes must leave the
// live heap where it was. A Decision kept per pass would add 9·n of them,
// hundreds of bytes each on these 4- and 12-CPU systems; the bound allows
// 64 bytes a pass.
func TestSchedulersKeepNoPassHistory(t *testing.T) {
	const n = 500
	cfg := fvsst.DefaultConfig()
	systems := []struct {
		name string
		// build returns one scheduling period's Step and the latest pass.
		build func() (step func() error, last func() (float64, bool))
	}{
		{"fvsst.Scheduler", func() (func() error, func() (float64, bool)) {
			m, err := machine.New(machine.P630Config(),
				[]workload.Program{workload.Gzip(100)}, []workload.Program{workload.Gap(100)},
				[]workload.Program{workload.Mcf(100)}, []workload.Program{workload.Health(100)})
			if err != nil {
				t.Fatal(err)
			}
			s, err := fvsst.New(cfg, m, units.Watts(294))
			if err != nil {
				t.Fatal(err)
			}
			drv := fvsst.NewDriver(m, s)
			return drv.Step, func() (float64, bool) { d, ok := s.LastDecision(); return d.At, ok }
		}},
		{"cluster.Coordinator", func() (func() error, func() (float64, bool)) {
			nodes, err := cluster.Tiered(machine.P630Config(), 100)
			if err != nil {
				t.Fatal(err)
			}
			c, err := cluster.New(cfg, units.Watts(900), nodes...)
			if err != nil {
				t.Fatal(err)
			}
			return c.Step, func() (float64, bool) { d, ok := c.LastDecision(); return d.At, ok }
		}},
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, sys := range systems {
		step, last := sys.build()
		run := func(passes int) {
			for i := 0; i < passes*cfg.SchedulePeriods; i++ {
				if err := step(); err != nil {
					t.Fatalf("%s: %v", sys.name, err)
				}
			}
		}
		run(n)
		before := liveHeap()
		run(9 * n)
		after := liveHeap()
		if at, ok := last(); !ok || at < float64(10*n-1)*0.1 {
			t.Fatalf("%s: last pass at %v s (ok %v), want one near %v s", sys.name, at, ok, float64(10*n)*0.1)
		}
		if after > before && after-before > 9*n*64 {
			t.Errorf("%s: live heap grew %d B over %d more passes (%d B a pass)",
				sys.name, after-before, 9*n, (after-before)/(9*n))
		}
	}
}
