package fvsst

import (
	"math"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/power"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// quietMachine returns a noise-free p630 for exact assertions.
func quietMachine(t testing.TB) *machine.Machine {
	t.Helper()
	cfg := machine.P630Config()
	cfg.LatencyJitterSigma = 0
	cfg.Contention = memhier.Contention{}
	cfg.ThrottleSettle = 0
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func noOverheadConfig() Config {
	cfg := DefaultConfig()
	cfg.Overhead = Overhead{}
	return cfg
}

func memProgram(name string, instr uint64) workload.Program {
	return workload.Program{Name: name, Phases: []workload.Phase{{
		Name: "mem", Alpha: 1.1,
		Rates:        memhier.AccessRates{L2PerInstr: 0.030, L3PerInstr: 0.006, MemPerInstr: 0.0186},
		Instructions: instr,
	}}}
}

func cpuProgram(name string, instr uint64) workload.Program {
	return workload.Program{Name: name, Phases: []workload.Phase{{
		Name: "cpu", Alpha: 1.4, Instructions: instr,
	}}}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"table":    func(c *Config) { c.Table = nil },
		"eps0":     func(c *Config) { c.Epsilon = 0 },
		"eps1":     func(c *Config) { c.Epsilon = 1 },
		"n":        func(c *Config) { c.SchedulePeriods = 0 },
		"overhead": func(c *Config) { c.Overhead.SchedulePass = -1 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestNewValidation(t *testing.T) {
	m := quietMachine(t)
	if _, err := New(noOverheadConfig(), nil, units.Watts(560)); err == nil {
		t.Error("nil target accepted")
	}
	if _, err := New(noOverheadConfig(), m, 0); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestSchedulerSaturatesMemoryBoundCPU(t *testing.T) {
	m := quietMachine(t)
	mix, _ := workload.NewMix(memProgram("mem", 1e12))
	m.SetMix(3, mix)
	s, err := New(noOverheadConfig(), m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	if err := drv.Run(0.5); err != nil {
		t.Fatal(err)
	}
	d, ok := s.LastDecision()
	if !ok {
		t.Fatal("no decision")
	}
	got := d.Assignments[3].Actual
	// The mcf-calibrated workload saturates at 650 MHz; allow one step of
	// slack for the imperfections the quiet machine still has (quantised
	// throttle duty shifting the observed frequency).
	if got > units.MHz(700) || got < units.MHz(600) {
		t.Errorf("memory-bound CPU scheduled at %v, want ≈650MHz", got)
	}
	// Without idle detection, hot-idle CPUs look CPU-bound and stay at
	// f_max (§7.1: "none of the idle-detection techniques ... implemented").
	for _, cpu := range []int{0, 1, 2} {
		if f := d.Assignments[cpu].Actual; f != units.GHz(1) {
			t.Errorf("hot-idle CPU %d at %v, want 1GHz without idle signal", cpu, f)
		}
	}
}

func TestSchedulerKeepsCPUBoundAtMax(t *testing.T) {
	m := quietMachine(t)
	mix, _ := workload.NewMix(cpuProgram("cpu", 1e12))
	m.SetMix(0, mix)
	s, err := New(noOverheadConfig(), m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	if err := drv.Run(0.5); err != nil {
		t.Fatal(err)
	}
	d, _ := s.LastDecision()
	if d.Assignments[0].Actual != units.GHz(1) {
		t.Errorf("CPU-bound work scheduled at %v, want 1GHz", d.Assignments[0].Actual)
	}
}

func TestIdleSignalDropsIdleCPUsToMinimum(t *testing.T) {
	m := quietMachine(t)
	cfg := noOverheadConfig()
	cfg.UseIdleSignal = true
	mix, _ := workload.NewMix(cpuProgram("cpu", 1e12))
	m.SetMix(0, mix)
	s, err := New(cfg, m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	if err := drv.Run(0.5); err != nil {
		t.Fatal(err)
	}
	d, _ := s.LastDecision()
	if d.Assignments[0].Actual != units.GHz(1) {
		t.Errorf("busy CPU at %v", d.Assignments[0].Actual)
	}
	for _, cpu := range []int{1, 2, 3} {
		a := d.Assignments[cpu]
		if !a.Idle {
			t.Errorf("CPU %d not flagged idle", cpu)
		}
		if a.Actual != units.MHz(250) {
			t.Errorf("idle CPU %d at %v, want table minimum 250MHz", cpu, a.Actual)
		}
	}
}

func TestBudgetChangeTriggersReschedule(t *testing.T) {
	m := quietMachine(t)
	for cpu := 0; cpu < 4; cpu++ {
		mix, _ := workload.NewMix(cpuProgram("cpu", 1e12))
		m.SetMix(cpu, mix)
	}
	s, err := New(noOverheadConfig(), m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	budgets, err := power.NewBudgetSchedule(units.Watts(560),
		power.BudgetEvent{At: 0.25, Budget: units.Watts(294), Label: "PS0 fails"})
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	drv.Budgets = budgets
	if err := drv.Run(0.5); err != nil {
		t.Fatal(err)
	}
	// Find the budget-change decision.
	var found *Decision
	for i, d := range s.Decisions() {
		if d.Trigger == "budget-change" {
			found = &s.Decisions()[i]
			break
		}
	}
	if found == nil {
		t.Fatal("no budget-change decision logged")
	}
	if found.Budget.W() != 294 {
		t.Errorf("budget at change = %v", found.Budget)
	}
	if !found.BudgetMet {
		t.Error("294W over 4 CPUs should be feasible")
	}
	if found.TablePower > units.Watts(294) {
		t.Errorf("table power %v exceeds budget", found.TablePower)
	}
	// The machine's true power must be under the new limit right after.
	if got := m.TotalCPUPower(); got > units.Watts(295) {
		t.Errorf("actual CPU power %v exceeds budget", got)
	}
	// All four CPU-bound jobs are symmetric: they should land within one
	// step of each other (700 MHz ×2 + 700 ×2 → 4×66=264 ≤ 294; greedy may
	// mix 700/750 on the fine table).
	last, _ := s.LastDecision()
	for cpu, a := range last.Assignments {
		if a.Actual < units.MHz(650) || a.Actual > units.MHz(800) {
			t.Errorf("cpu %d at %v after cap", cpu, a.Actual)
		}
	}
}

func TestInfeasibleBudgetFloorsAtMinimum(t *testing.T) {
	m := quietMachine(t)
	s, err := New(noOverheadConfig(), m, units.Watts(20)) // < 4×9W minimum
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	if err := drv.Run(0.3); err != nil {
		t.Fatal(err)
	}
	d, _ := s.LastDecision()
	if d.BudgetMet {
		t.Error("20W for 4 CPUs reported met")
	}
	for cpu, a := range d.Assignments {
		if a.Actual != units.MHz(250) {
			t.Errorf("cpu %d at %v, want floor", cpu, a.Actual)
		}
	}
}

func TestVoltageAssignmentsMonotoneWithFrequency(t *testing.T) {
	m := quietMachine(t)
	mix, _ := workload.NewMix(memProgram("mem", 1e12))
	m.SetMix(0, mix)
	s, err := New(noOverheadConfig(), m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	if err := drv.Run(0.3); err != nil {
		t.Fatal(err)
	}
	d, _ := s.LastDecision()
	for _, a := range d.Assignments {
		i := s.cfg.Table.IndexOf(a.Actual)
		if i < 0 {
			t.Fatalf("cpu %d: off-grid actual frequency %v", a.CPU, a.Actual)
		}
		if wantV := s.cfg.Table.VoltageAtIndex(i); a.Voltage != wantV {
			t.Errorf("cpu %d voltage %v, want %v", a.CPU, a.Voltage, wantV)
		}
	}
}

// TestOverheadChargedToDaemonCPU: the single-threaded daemon runs on CPU
// 0, so its whole cost lands there and a busy CPU beside it loses nothing.
func TestOverheadChargedToDaemonCPU(t *testing.T) {
	run := func(oh Overhead) (cpu0, cpu1 uint64) {
		m := quietMachine(t)
		for cpu := 0; cpu < 2; cpu++ {
			mix, _ := workload.NewMix(cpuProgram("cpu", 1e12))
			m.SetMix(cpu, mix)
		}
		cfg := noOverheadConfig()
		cfg.Overhead = oh
		s, err := New(cfg, m, units.Watts(560))
		if err != nil {
			t.Fatal(err)
		}
		drv := NewDriver(m, s)
		if err := drv.Run(1.0); err != nil {
			t.Fatal(err)
		}
		s0, _ := m.ReadCounters(0)
		s1, _ := m.ReadCounters(1)
		return s0.Instructions, s1.Instructions
	}
	clean0, clean1 := run(Overhead{})
	loaded0, loaded1 := run(DefaultOverhead())
	degradation := 1 - float64(loaded0)/float64(clean0)
	// Figure 4: the prototype's overhead is under 3%.
	if degradation <= 0 || degradation > 0.03 {
		t.Errorf("daemon overhead on CPU 0 = %.2f%%, want (0, 3%%]", degradation*100)
	}
	if loaded1 != clean1 {
		t.Errorf("CPU 1 retired %d instructions under the daemon, %d without: the cost must land on CPU 0 alone", loaded1, clean1)
	}
}

func TestIdealFrequencyModeEndToEnd(t *testing.T) {
	m := quietMachine(t)
	mix, _ := workload.NewMix(memProgram("mem", 1e12))
	m.SetMix(3, mix)
	cfg := noOverheadConfig()
	cfg.UseIdealFrequency = true
	s, err := New(cfg, m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	if err := drv.Run(1.0); err != nil {
		t.Fatal(err)
	}
	d, _ := s.LastDecision()
	got := d.Assignments[3].Actual
	if got > units.MHz(700) || got < units.MHz(600) {
		t.Errorf("f_ideal mode scheduled memory-bound CPU at %v, want ≈650MHz", got)
	}
}

func TestDriverTelemetry(t *testing.T) {
	m := quietMachine(t)
	mix, _ := workload.NewMix(memProgram("mem", 1e12))
	m.SetMix(0, mix)
	s, err := New(noOverheadConfig(), m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	drv.Recorder = telemetry.NewRecorder()
	drv.TraceCPU = 0
	if err := drv.Run(0.3); err != nil {
		t.Fatal(err)
	}
	// Creation order is the CSV column order.
	want := []string{"system-power-w", "cpu-power-w", "budget-w", "ipc", "freq-mhz", "desired-mhz", "actual-mhz"}
	if got := drv.Recorder.Names(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("series %v, want %v", got, want)
	}
	for _, name := range want {
		if drv.Recorder.Series(name).Len() == 0 {
			t.Errorf("series %q empty", name)
		}
	}
	// Power series should track under 746 W once the scheduler throttles.
	pw := drv.Recorder.Series("system-power-w").Values()
	if pw[len(pw)-1] >= 746 {
		t.Errorf("final system power %v, want < 746 (CPU 0 saturated)", pw[len(pw)-1])
	}
}

// TestDriverTraceCPURange: a Recorder needs a traced CPU in [0, NumCPUs);
// without one TraceCPU is not read.
func TestDriverTraceCPURange(t *testing.T) {
	for _, tc := range []struct {
		rec  bool
		cpu  int
		fail bool
	}{{true, -1, true}, {true, 4, true}, {true, 3, false}, {false, -1, false}} {
		m := quietMachine(t)
		s, err := New(noOverheadConfig(), m, units.Watts(560))
		if err != nil {
			t.Fatal(err)
		}
		drv := NewDriver(m, s)
		if tc.rec {
			drv.Recorder = telemetry.NewRecorder()
		}
		drv.TraceCPU = tc.cpu
		if err := drv.Step(); (err != nil) != tc.fail {
			t.Errorf("recorder=%v TraceCPU=%d: err = %v, want failure %v", tc.rec, tc.cpu, err, tc.fail)
		}
	}
}

func TestPredictedVersusObservedIPCClose(t *testing.T) {
	// Table 2's premise: on steady phases the predictor's IPC matches the
	// observed IPC closely. Compare prediction for the *current* frequency
	// against the next window's observation.
	m := quietMachine(t)
	mix, _ := workload.NewMix(memProgram("mem", 1e12))
	m.SetMix(3, mix)
	s, err := New(noOverheadConfig(), m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	if err := drv.Run(1.0); err != nil {
		t.Fatal(err)
	}
	decisions := s.Decisions()
	if len(decisions) < 4 {
		t.Fatalf("only %d decisions", len(decisions))
	}
	// Skip the first two (cold start / frequency still moving).
	var devs []float64
	for _, d := range decisions[2:] {
		a := d.Assignments[3]
		if a.ObservedIPC == 0 {
			continue
		}
		devs = append(devs, math.Abs(a.PredictedIPC-a.ObservedIPC))
	}
	if len(devs) == 0 {
		t.Fatal("no comparable windows")
	}
	var sum float64
	for _, v := range devs {
		sum += v
	}
	if mean := sum / float64(len(devs)); mean > 0.02 {
		t.Errorf("mean |predicted-observed| IPC = %v, want ≤ 0.02 on quiet machine", mean)
	}
}
