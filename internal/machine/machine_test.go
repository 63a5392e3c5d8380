package machine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/counters"
	"repro/internal/memhier"
	"repro/internal/perfmodel"
	"repro/internal/units"
	"repro/internal/workload"
)

// quietConfig returns the p630 with all stochastic effects disabled, for
// exact assertions.
func quietConfig() Config {
	cfg := P630Config()
	cfg.LatencyJitterSigma = 0
	cfg.Contention = memhier.Contention{}
	cfg.ThrottleSettle = 0
	return cfg
}

func newQuiet(t *testing.T, progs ...[]workload.Program) *Machine {
	t.Helper()
	m, err := New(quietConfig(), progs...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runQuanta steps m n quanta, stopping at the first *StepError.
func runQuanta(m *Machine, n int) error {
	for i := 0; i < n; i++ {
		if err := m.StepQuantum(); err != nil {
			return err
		}
	}
	return nil
}

// runUntil steps m one quantum at a time until simulation time t
// (inclusive of the quantum containing t), stopping at the first
// *StepError: the stepped reference AdvanceTo is held byte-identical to.
func runUntil(m *Machine, t float64) error {
	for m.Now() < t {
		if err := m.StepQuantum(); err != nil {
			return err
		}
	}
	return nil
}

// runUntilDone steps m until every job completes or deadline passes and
// reports whether every job completed.
func runUntilDone(m *Machine, deadline float64) (bool, error) {
	for m.Now() < deadline && !m.AllJobsDone() {
		if err := m.StepQuantum(); err != nil {
			return false, err
		}
	}
	return m.AllJobsDone(), nil
}

func cpuPhase(alpha float64, instr uint64) workload.Phase {
	return workload.Phase{Name: "cpu", Alpha: alpha, Instructions: instr}
}

func TestConfigValidate(t *testing.T) {
	good := P630Config()
	if err := good.Validate(); err != nil {
		t.Fatalf("P630Config invalid: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"cpus":    func(c *Config) { c.NumCPUs = 0 },
		"table":   func(c *Config) { c.Table = nil },
		"quantum": func(c *Config) { c.Quantum = 0 },
		"steps":   func(c *Config) { c.ThrottleSteps = 0 },
		"jitter":  func(c *Config) { c.LatencyJitterSigma = 0.9 },
	} {
		cfg := P630Config()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestFreshMachineIdlesHotAtNominal(t *testing.T) {
	m := newQuiet(t)
	if m.NumCPUs() != 4 {
		t.Fatalf("NumCPUs = %d", m.NumCPUs())
	}
	runQuanta(m, 10)
	if math.Abs(m.Now()-0.1) > 1e-9 {
		t.Errorf("Now = %v, want 0.1", m.Now())
	}
	for i := 0; i < 4; i++ {
		if !m.IsIdle(i) {
			t.Errorf("cpu %d should be idle", i)
		}
		s, err := m.ReadCounters(i)
		if err != nil {
			t.Fatal(err)
		}
		// Hot idle retires instructions at IPC ≈ 1.3.
		if s.Instructions == 0 || s.Cycles == 0 {
			t.Fatalf("cpu %d: hot idle retired nothing: %+v", i, s)
		}
		ipc := float64(s.Instructions) / float64(s.Cycles)
		if math.Abs(ipc-1.3) > 0.01 {
			t.Errorf("cpu %d idle IPC = %v, want ≈1.3", i, ipc)
		}
	}
}

// TestNewInstallsPrograms: a machine built with its programs steps
// bit-identically to one built idle whose mixes are then installed with
// SetMix; a CPU given no list, or an empty one, is idle; and more lists
// than CPUs is an error.
func TestNewInstallsPrograms(t *testing.T) {
	cfg := P630Config() // full noise: jitter and contention draw
	progs := [][]workload.Program{
		{workload.Mcf(0.05), workload.Gzip(0.05)},
		nil,
		{workload.Gap(0.05)},
	}
	built, err := New(cfg, progs...)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for cpu, ps := range progs {
		if len(ps) == 0 {
			continue
		}
		mix, err := workload.NewMix(ps...)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.SetMix(cpu, mix); err != nil {
			t.Fatal(err)
		}
	}
	for _, cpu := range []int{1, 3} {
		if built.Mix(cpu) != nil || !built.IsIdle(cpu) {
			t.Errorf("cpu %d has no programs but is not idle", cpu)
		}
	}
	if built.IsIdle(0) || built.IsIdle(2) {
		t.Error("a CPU with programs reports idle")
	}
	for q := 0; q < 50; q++ {
		if err := built.StepQuantum(); err != nil {
			t.Fatal(err)
		}
		if err := ref.StepQuantum(); err != nil {
			t.Fatal(err)
		}
		for cpu := 0; cpu < cfg.NumCPUs; cpu++ {
			a, _ := built.ReadCounters(cpu)
			b, _ := ref.ReadCounters(cpu)
			if a != b {
				t.Fatalf("quantum %d cpu %d: counters %+v, SetMix reference %+v", q, cpu, a, b)
			}
		}
		if built.Energy() != ref.Energy() || built.CPUEnergy() != ref.CPUEnergy() {
			t.Fatalf("quantum %d: energy %v/%v, SetMix reference %v/%v",
				q, built.Energy(), built.CPUEnergy(), ref.Energy(), ref.CPUEnergy())
		}
	}

	if _, err := New(cfg, make([][]workload.Program, cfg.NumCPUs+1)...); err == nil {
		t.Errorf("%d program lists for %d CPUs accepted", cfg.NumCPUs+1, cfg.NumCPUs)
	}
}

func TestHaltingIdleCountsHaltedCycles(t *testing.T) {
	cfg := quietConfig()
	cfg.Idle = IdleHalt
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runQuanta(m, 5)
	s, _ := m.ReadCounters(0)
	if s.Instructions != 0 {
		t.Errorf("halting idle retired %d instructions", s.Instructions)
	}
	if s.HaltedCycles == 0 {
		t.Error("no halted cycles counted")
	}
	if !m.IsIdle(0) {
		t.Error("IsIdle = false")
	}
}

func TestWorkloadExecutionMatchesAnalyticModel(t *testing.T) {
	// One CPU-bound job: α=2, no memory → 0.5 cycles/instr at any f.
	// At 1 GHz for 1 s: 2e9 instructions.
	prog := workload.Program{Name: "j", Phases: []workload.Phase{cpuPhase(2, 1e12)}}
	m := newQuiet(t, nil, nil, nil, []workload.Program{prog})
	runUntil(m, 1.0)
	s, _ := m.ReadCounters(3)
	if math.Abs(float64(s.Instructions)-2e9)/2e9 > 0.01 {
		t.Errorf("instructions = %d, want ≈2e9", s.Instructions)
	}
	if m.IsIdle(3) {
		t.Error("busy CPU reported idle")
	}
}

func TestMemoryBoundWorkloadSaturation(t *testing.T) {
	// The central physical mechanism: a DRAM-bound job completes almost
	// the same work per second at 650 MHz as at 1 GHz.
	run := func(f units.Frequency) uint64 {
		phase := workload.Phase{
			Name: "mem", Alpha: 1.1,
			Rates:        memhier.AccessRates{L2PerInstr: 0.030, L3PerInstr: 0.006, MemPerInstr: 0.0186},
			Instructions: 1e12,
		}
		m := newQuiet(t, []workload.Program{{Name: "m", Phases: []workload.Phase{phase}}})
		if err := m.SetFrequency(0, f); err != nil {
			t.Fatal(err)
		}
		runUntil(m, 1.0)
		s, _ := m.ReadCounters(0)
		return s.Instructions
	}
	full := run(units.GHz(1))
	slow := run(units.MHz(650))
	lost := 1 - float64(slow)/float64(full)
	if lost > 0.06 {
		t.Errorf("memory-bound job lost %.1f%% at 650MHz, want < 6%%", lost*100)
	}
	// A CPU-bound job, by contrast, loses ≈35%.
	runCPU := func(f units.Frequency) uint64 {
		m := newQuiet(t, []workload.Program{{Name: "c", Phases: []workload.Phase{cpuPhase(1.4, 1e12)}}})
		m.SetFrequency(0, f)
		runUntil(m, 1.0)
		s, _ := m.ReadCounters(0)
		return s.Instructions
	}
	cpuLost := 1 - float64(runCPU(units.MHz(650)))/float64(runCPU(units.GHz(1)))
	if math.Abs(cpuLost-0.35) > 0.02 {
		t.Errorf("CPU-bound job lost %.1f%% at 650MHz, want ≈35%%", cpuLost*100)
	}
}

func TestSetFrequencyActuatesThroughThrottle(t *testing.T) {
	m := newQuiet(t)
	if err := m.SetFrequency(1, units.MHz(500)); err != nil {
		t.Fatal(err)
	}
	if got := m.EffectiveFrequency(1); math.Abs(got.MHz()-500) > 11 {
		t.Errorf("effective = %v, want ≈500MHz (within quantisation)", got)
	}
	if err := m.SetFrequency(1, units.GHz(2)); err == nil {
		t.Error("above-nominal frequency accepted")
	}
	if err := m.SetFrequency(99, units.MHz(500)); err == nil {
		t.Error("bad cpu index accepted")
	}
}

func TestPowerAccounting(t *testing.T) {
	m := newQuiet(t)
	// All four CPUs at nominal: 4×140 W + 186 W base = 746 W (§2).
	if got := m.SystemPower(); math.Abs(got.W()-746) > 1e-9 {
		t.Errorf("system power = %v, want 746W", got)
	}
	if got := m.TotalCPUPower(); math.Abs(got.W()-560) > 1e-9 {
		t.Errorf("CPU power = %v, want 560W", got)
	}
	// Throttle one CPU to 500 MHz → 35 W.
	m.SetFrequency(0, units.MHz(500))
	if got := m.CPUPower(0); math.Abs(got.W()-35) > 2 {
		t.Errorf("CPU0 power at 500MHz = %v, want ≈35W", got)
	}
}

// TestCPUPowerMemoMatchesTable: CPUPower, memoised on each CPU's
// frequency, is the table's interpolation at that CPU's effective
// frequency at every quantum — through throttle settles, frequency
// changes, a power-off and back, and a fast-forwarded span — and
// TotalCPUPower is those values summed in processor order, bit for bit.
func TestCPUPowerMemoMatchesTable(t *testing.T) {
	cfg := quietConfig()
	cfg.ThrottleSettle = 0.025 // a request takes effect 2.5 quanta later
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checks := 0
	check := func() error {
		checks++
		var sum units.Power
		for i := 0; i < m.NumCPUs(); i++ {
			f := m.EffectiveFrequency(i)
			var want units.Power
			if f != 0 {
				if want, err = cfg.Table.PowerInterp(f); err != nil {
					return err
				}
			}
			if got := m.CPUPower(i); math.Float64bits(got.W()) != math.Float64bits(want.W()) {
				return fmt.Errorf("t=%v cpu %d at %v: CPUPower %v, table %v", m.Now(), i, f, got, want)
			}
			sum += want
		}
		if got := m.TotalCPUPower(); math.Float64bits(got.W()) != math.Float64bits(sum.W()) {
			return fmt.Errorf("t=%v: TotalCPUPower %v, sum %v", m.Now(), got, sum)
		}
		return nil
	}
	step := func(n int) {
		t.Helper()
		for k := 0; k < n; k++ {
			if err := m.StepQuantum(); err != nil {
				t.Fatal(err)
			}
			if err := check(); err != nil {
				t.Fatal(err)
			}
		}
	}
	set := func(fs ...float64) {
		t.Helper()
		for i, x := range fs {
			if x < 0 {
				continue // leave this CPU as it is
			}
			if err := m.SetFrequency(i, units.Frequency(x*cfg.Table.MaxFrequency().Hz())); err != nil {
				t.Fatal(err)
			}
		}
		if err := check(); err != nil {
			t.Fatal(err)
		}
	}
	// Each CPU with work, so power follows the frequency of a busy CPU.
	for i := 0; i < m.NumCPUs(); i++ {
		mix, err := workload.NewMix(workload.Program{Name: "spin", Phases: []workload.Phase{cpuPhase(1.2, 1e12)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetMix(i, mix); err != nil {
			t.Fatal(err)
		}
	}
	if err := check(); err != nil {
		t.Fatal(err)
	}
	step(2)
	set(0.7, 0, 0.45, -1) // CPU 1 powers off
	step(5)
	set(1, 0.6, -1, 0.7) // CPU 1 back on; CPU 3 takes CPU 0's old frequency
	step(2)
	set(0.7, -1, 0.45, 0.2) // requests landing before the previous settle
	step(5)
	set(0.7, 0.7, 0.7, 0.7) // some unchanged: the memo must hold
	step(5)

	// Idle and settled: a fast-forward replays most of the span, and the
	// after hook sees every quantum, replayed or stepped.
	for i := 0; i < m.NumCPUs(); i++ {
		if err := m.SetMix(i, nil); err != nil {
			t.Fatal(err)
		}
	}
	set(0.9, 0, -1, 0.3)
	step(5)
	before, stats := checks, m.AdvanceStats()
	if err := m.FastForwardQuanta(300, check); err != nil {
		t.Fatal(err)
	}
	if checks-before != 300 {
		t.Fatalf("after hook ran %d times over 300 quanta", checks-before)
	}
	if m.AdvanceStats().Replayed == stats.Replayed {
		t.Fatal("the span was never replayed")
	}
	set(0.55, 1, 0.55, -1)
	step(4)
}

func TestEnergyIntegration(t *testing.T) {
	m := newQuiet(t)
	runQuanta(m, 100) // 1 s at 746 W
	if got := m.Energy().J(); math.Abs(got-746) > 1 {
		t.Errorf("energy = %v J, want ≈746", got)
	}
	if got := m.CPUEnergy().J(); math.Abs(got-560) > 1 {
		t.Errorf("CPU energy = %v J, want ≈560", got)
	}
}

func TestJobCompletionRecorded(t *testing.T) {
	prog := workload.Program{Name: "quick", Phases: []workload.Phase{cpuPhase(1, 1e6)}}
	m := newQuiet(t, nil, nil, []workload.Program{prog})
	if ok, err := runUntilDone(m, 1.0); err != nil || !ok {
		t.Fatalf("job did not complete: %v", err)
	}
	comps := m.Completions()
	if len(comps) != 1 || comps[0].CPU != 2 || comps[0].Program != "quick" {
		t.Errorf("completions = %+v", comps)
	}
	if comps[0].At > 0.02 {
		t.Errorf("1e6 instructions took %v s", comps[0].At)
	}
}

func TestPredictorSeesAccurateCountersOnQuietMachine(t *testing.T) {
	// End-to-end closure: run a known workload, sample counters, decompose,
	// and check the prediction matches a run at the predicted frequency.
	rates := memhier.AccessRates{L2PerInstr: 0.02, MemPerInstr: 0.008}
	phase := workload.Phase{Name: "p", Alpha: 1.2, Rates: rates, Instructions: 1e12}
	m := newQuiet(t, []workload.Program{{Name: "w", Phases: []workload.Phase{phase}}})

	before, _ := m.ReadCounters(0)
	runQuanta(m, 10)
	after, _ := m.ReadCounters(0)
	delta, err := after.Sub(before)
	if err != nil {
		t.Fatal(err)
	}
	p, err := perfmodel.New(memhier.P630())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := p.Decompose(perfmodel.Observation{Delta: delta, Freq: units.GHz(1)})
	if err != nil {
		t.Fatal(err)
	}
	wantStall := rates.StallTimePerInstr(memhier.P630())
	if math.Abs(dec.StallSecPerInstr-wantStall)/wantStall > 0.02 {
		t.Errorf("recovered stall %v, want %v", dec.StallSecPerInstr, wantStall)
	}
	// The recovered α is biased slightly low by the non-mem stalls the
	// counters cannot see — here zero, so it should be near-exact.
	if math.Abs(1/dec.InvAlpha-1.2) > 0.05 {
		t.Errorf("recovered alpha %v, want ≈1.2", 1/dec.InvAlpha)
	}
}

func TestStealTimeReducesThroughput(t *testing.T) {
	run := func(steal bool) uint64 {
		m := newQuiet(t, []workload.Program{{Name: "c", Phases: []workload.Phase{cpuPhase(1.4, 1e12)}}})
		for q := 0; q < 100; q++ {
			if steal {
				m.StealTime(0, 0.001) // 10% of each quantum
			}
			m.Step()
		}
		s, _ := m.ReadCounters(0)
		return s.Instructions
	}
	clean, stolen := run(false), run(true)
	ratio := float64(stolen) / float64(clean)
	if math.Abs(ratio-0.9) > 0.01 {
		t.Errorf("stolen/clean = %v, want ≈0.9", ratio)
	}
	m := newQuiet(t)
	if err := m.StealTime(0, -1); err == nil {
		t.Error("negative steal accepted")
	}
	if err := m.StealTime(9, 1); err == nil {
		t.Error("bad cpu steal accepted")
	}
}

func TestMultiprogrammedAggregation(t *testing.T) {
	// Two jobs time-sliced on one CPU: the counters show the aggregate.
	cpu := workload.Program{Name: "cpu", Phases: []workload.Phase{cpuPhase(1.4, 1e12)}}
	mem := workload.Program{Name: "mem", Phases: []workload.Phase{{
		Name: "m", Alpha: 1.1,
		Rates:        memhier.AccessRates{MemPerInstr: 0.02},
		Instructions: 1e12,
	}}}
	m := newQuiet(t, []workload.Program{cpu, mem})
	runQuanta(m, 100)
	s, _ := m.ReadCounters(0)
	memRate := float64(s.MemRefs) / float64(s.Instructions)
	// Aggregate rate must sit strictly between the two jobs' rates.
	if memRate <= 0 || memRate >= 0.02 {
		t.Errorf("aggregate mem rate = %v, want in (0, 0.02)", memRate)
	}
}

func TestContentionSlowsSharedL2Partner(t *testing.T) {
	cfg := quietConfig()
	cfg.Contention = memhier.Contention{MaxInflation: 1.3}
	memProg := func(name string) workload.Program {
		return workload.Program{Name: name, Phases: []workload.Phase{{
			Name: "m", Alpha: 1.1,
			Rates:        memhier.AccessRates{MemPerInstr: 0.02},
			Instructions: 1e12,
		}}}
	}
	// Run the probe job alone on CPU0...
	alone, err := New(cfg, []workload.Program{memProg("probe")})
	if err != nil {
		t.Fatal(err)
	}
	runUntil(alone, 1.0)
	sAlone, _ := alone.ReadCounters(0)

	// ...and with a memory-hog partner on CPU1 (shares the L2).
	together, err := New(cfg, []workload.Program{memProg("probe")}, []workload.Program{memProg("hog")})
	if err != nil {
		t.Fatal(err)
	}
	runUntil(together, 1.0)
	sTogether, _ := together.ReadCounters(0)

	if sTogether.Instructions >= sAlone.Instructions {
		t.Errorf("contention had no effect: %d >= %d", sTogether.Instructions, sAlone.Instructions)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() counters.Sample {
		cfg := P630Config() // full noise, fixed seed
		m, err := New(cfg, []workload.Program{workload.Mcf(0.05)})
		if err != nil {
			t.Fatal(err)
		}
		runQuanta(m, 200)
		s, _ := m.ReadCounters(0)
		return s
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestReadCountersBounds(t *testing.T) {
	m := newQuiet(t)
	if _, err := m.ReadCounters(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := m.ReadCounters(4); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := m.SetMix(17, nil); err == nil {
		t.Error("SetMix out of range accepted")
	}
}

func TestAllJobsDoneWhileJobRuns(t *testing.T) {
	m := newQuiet(t, []workload.Program{{Name: "long", Phases: []workload.Phase{cpuPhase(1, 1e15)}}})
	if done, err := runUntilDone(m, 0.05); err != nil || done {
		t.Errorf("impossibly long job: done %v, err %v", done, err)
	}
}

func TestZeroFrequencyStallsCPU(t *testing.T) {
	m := newQuiet(t, []workload.Program{{Name: "j", Phases: []workload.Phase{cpuPhase(1, 1e9)}}})
	m.SetFrequency(0, 0)
	runQuanta(m, 10)
	s, _ := m.ReadCounters(0)
	if s.Instructions != 0 {
		t.Errorf("fully throttled CPU retired %d instructions", s.Instructions)
	}
	// Frequency zero means powered off: no draw at all, unlike the 250 MHz
	// floor's 9 W.
	if p := m.CPUPower(0); p != 0 {
		t.Errorf("powered-down CPU draws %v, want 0", p)
	}
	if got := m.TotalCPUPower(); got.W() != 3*140 {
		t.Errorf("total = %v, want 420W (three at nominal, one off)", got)
	}
}

// TestCompletionHook: a hook diverts completions from the slice, sees
// the same interpolated timestamps, and can install follow-on work that
// runs within the same quantum (the serving station's work-conserving
// dispatch).
func TestCompletionHook(t *testing.T) {
	prog := func(name string, instr uint64) workload.Program {
		return workload.Program{Name: name, Phases: []workload.Phase{{Name: "p", Alpha: 1.3, Instructions: instr}}}
	}
	// Reference run without a hook.
	ref := newQuiet(t, []workload.Program{prog("a", 1e6)})
	runQuanta(ref, 5)
	refDone := ref.Completions()
	if len(refDone) != 1 {
		t.Fatalf("reference completions = %d", len(refDone))
	}

	// Hooked run: same job, then the hook chains a second job in place.
	m := newQuiet(t, []workload.Program{prog("a", 1e6)})
	cur := m.Mix(0).Jobs()[0]
	var got []JobCompletion
	m.SetCompletionHook(func(jc JobCompletion) {
		got = append(got, jc)
		if len(got) == 1 {
			cur.Rebind(prog("b", 1e6))
		}
	})
	runQuanta(m, 5)
	if len(m.Completions()) != 0 {
		t.Errorf("hooked machine still recorded %d completions in the slice", len(m.Completions()))
	}
	if len(got) != 2 {
		t.Fatalf("hook saw %d completions, want 2 (chained job must run)", len(got))
	}
	if got[0].Program != "a" || got[1].Program != "b" {
		t.Errorf("hook order: %+v", got)
	}
	if got[0].At != refDone[0].At {
		t.Errorf("hooked completion at %v, reference at %v", got[0].At, refDone[0].At)
	}
	// Job b started the instant a finished, so it completed inside the
	// same quantum (equal length, same frequency).
	if got[1].At >= got[0].At+m.Config().Quantum {
		t.Errorf("chained job completed at %v, not within the quantum after %v", got[1].At, got[0].At)
	}
	// Clearing the hook restores slice recording.
	m.SetCompletionHook(nil)
	cur.Rebind(prog("c", 1e6))
	runQuanta(m, 5)
	if len(m.Completions()) != 1 {
		t.Errorf("after clearing hook, completions = %d, want 1", len(m.Completions()))
	}
}
