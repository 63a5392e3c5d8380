package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/memhier"
)

func h() memhier.Hierarchy { return memhier.P630() }

// mustMix is NewMix for a test's fixed programs.
func mustMix(t *testing.T, programs ...Program) *Mix {
	t.Helper()
	m, err := NewMix(programs...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func validPhase() Phase {
	return Phase{
		Name:         "p",
		Alpha:        1.4,
		Rates:        memhier.AccessRates{L2PerInstr: 0.01, MemPerInstr: 0.001},
		Instructions: 1000,
	}
}

func TestPhaseValidate(t *testing.T) {
	if err := validPhase().Validate(); err != nil {
		t.Errorf("valid phase rejected: %v", err)
	}
	bad := validPhase()
	bad.Alpha = 0
	if bad.Validate() == nil {
		t.Error("alpha=0 accepted")
	}
	bad = validPhase()
	bad.Alpha = 9
	if bad.Validate() == nil {
		t.Error("alpha=9 accepted")
	}
	bad = validPhase()
	bad.Rates.MemPerInstr = -1
	if bad.Validate() == nil {
		t.Error("negative rate accepted")
	}
	bad = validPhase()
	bad.Instructions = 0
	if bad.Validate() == nil {
		t.Error("zero instructions accepted")
	}
	bad = validPhase()
	bad.NonMemStallCyclesPerInstr = -1
	if bad.Validate() == nil {
		t.Error("negative stall accepted")
	}
}

func TestTrueCyclesPerInstr(t *testing.T) {
	p := Phase{Alpha: 2, Rates: memhier.AccessRates{MemPerInstr: 0.01}, Instructions: 1}
	// At 1 GHz: core = 0.5 cycles, mem = 0.01·393ns·1e9 = 3.93 cycles.
	got := p.TrueCyclesPerInstr(h(), 1e9, 1)
	if math.Abs(got-4.43) > 1e-9 {
		t.Errorf("TrueCyclesPerInstr = %v, want 4.43", got)
	}
	// Halving frequency halves the memory cycles but not the core cycles.
	got500 := p.TrueCyclesPerInstr(h(), 0.5e9, 1)
	if math.Abs(got500-(0.5+1.965)) > 1e-9 {
		t.Errorf("at 500MHz = %v, want 2.465", got500)
	}
	// Latency scale inflates only the memory term.
	scaled := p.TrueCyclesPerInstr(h(), 1e9, 1.5)
	if math.Abs(scaled-(0.5+3.93*1.5)) > 1e-9 {
		t.Errorf("scaled = %v", scaled)
	}
	// Non-memory stalls add frequency-scaled cycles.
	p.NonMemStallCyclesPerInstr = 0.25
	if got := p.TrueCyclesPerInstr(h(), 1e9, 1); math.Abs(got-4.68) > 1e-9 {
		t.Errorf("with stalls = %v, want 4.68", got)
	}
}

func TestProgramValidate(t *testing.T) {
	good := Program{Name: "x", Phases: []Phase{validPhase()}}
	if err := good.Validate(); err != nil {
		t.Errorf("good program rejected: %v", err)
	}
	if (Program{Phases: []Phase{validPhase()}}).Validate() == nil {
		t.Error("unnamed program accepted")
	}
	if (Program{Name: "x"}).Validate() == nil {
		t.Error("empty program accepted")
	}
	if (Program{Name: "x", Phases: []Phase{validPhase()}, LoopFrom: 5}).Validate() == nil {
		t.Error("out-of-range LoopFrom accepted")
	}
}

func TestTotalInstructions(t *testing.T) {
	p := Program{Name: "x", Phases: []Phase{
		{Name: "a", Alpha: 1, Instructions: 100},
		{Name: "b", Alpha: 1, Instructions: 50},
	}, LoopFrom: 1, Loops: 2}
	total, finite := p.TotalInstructions()
	if !finite || total != 150+2*50 {
		t.Errorf("TotalInstructions = %v,%v want 250,true", total, finite)
	}
	p.Loops = -1
	if _, finite := p.TotalInstructions(); finite {
		t.Error("infinite program reported finite")
	}
}

func TestCursorWalksPhases(t *testing.T) {
	p := Program{Name: "x", Phases: []Phase{
		{Name: "a", Alpha: 1, Instructions: 100},
		{Name: "b", Alpha: 1, Instructions: 50},
	}}
	c, err := NewCursor(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Current().Name != "a" || c.RemainingInPhase() != 100 {
		t.Fatalf("start state wrong")
	}
	if got := c.Advance(70); got != 70 {
		t.Errorf("Advance(70) = %d", got)
	}
	if c.RemainingInPhase() != 30 {
		t.Errorf("remaining = %d", c.RemainingInPhase())
	}
	// Cross the boundary.
	if got := c.Advance(40); got != 40 {
		t.Errorf("Advance(40) = %d", got)
	}
	if c.Current().Name != "b" || c.RemainingInPhase() != 40 {
		t.Errorf("after crossing: %s/%d", c.Current().Name, c.RemainingInPhase())
	}
	// Run past the end.
	if got := c.Advance(1000); got != 40 {
		t.Errorf("final Advance = %d, want 40", got)
	}
	if !c.Done() {
		t.Error("cursor should be done")
	}
	if got := c.Advance(10); got != 0 {
		t.Errorf("Advance after done = %d", got)
	}
}

func TestCursorLooping(t *testing.T) {
	p := Program{Name: "x", Phases: []Phase{
		{Name: "init", Alpha: 1, Instructions: 10},
		{Name: "body", Alpha: 1, Instructions: 20},
	}, LoopFrom: 1, Loops: 2}
	c, err := NewCursor(p)
	if err != nil {
		t.Fatal(err)
	}
	// init(10) + body(20)*3 = 70 instructions total.
	if got := c.Advance(69); got != 69 {
		t.Errorf("Advance(69) = %d", got)
	}
	if c.Done() {
		t.Error("done one instruction early")
	}
	if got := c.Advance(1); got != 1 {
		t.Errorf("final instruction = %d", got)
	}
	if !c.Done() {
		t.Error("should be done at 70")
	}
}

func TestCursorInfiniteLoop(t *testing.T) {
	c, err := NewCursor(HotIdle())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if got := c.Advance(1 << 30); got != 1<<30 {
			t.Fatalf("infinite program stalled at iteration %d", i)
		}
	}
	if c.Done() {
		t.Error("infinite program reported done")
	}
}

func TestAdvanceWithinPhase(t *testing.T) {
	p := Program{Name: "x", Phases: []Phase{
		{Name: "a", Alpha: 1, Instructions: 100},
		{Name: "b", Alpha: 1, Instructions: 50},
	}}
	c, _ := NewCursor(p)
	n, ended := c.AdvanceWithinPhase(250)
	if n != 100 || !ended {
		t.Errorf("AdvanceWithinPhase = %d,%v want 100,true", n, ended)
	}
	if c.Current().Name != "b" {
		t.Errorf("should be in b, in %s", c.Current().Name)
	}
	n, ended = c.AdvanceWithinPhase(10)
	if n != 10 || ended {
		t.Errorf("partial advance = %d,%v", n, ended)
	}
	c.Advance(40)
	if !c.Done() {
		t.Fatal("not done")
	}
	if n, _ := c.AdvanceWithinPhase(5); n != 0 {
		t.Errorf("done cursor advanced %d", n)
	}
}

func TestCursorReset(t *testing.T) {
	p := Gzip(0.01)
	c, err := NewCursor(p)
	if err != nil {
		t.Fatal(err)
	}
	c.Advance(1 << 40)
	if !c.Done() {
		t.Fatal("not done")
	}
	c.Reset()
	if c.Done() || c.phaseIdx != 0 {
		t.Error("Reset did not rewind")
	}
}

func TestCursorAdvanceConservesInstructions(t *testing.T) {
	err := quick.Check(func(steps []uint16) bool {
		p := Program{Name: "x", Phases: []Phase{
			{Name: "a", Alpha: 1, Instructions: 1000},
			{Name: "b", Alpha: 1, Instructions: 500},
		}, LoopFrom: 0, Loops: 1}
		total, _ := p.TotalInstructions()
		c, err := NewCursor(p)
		if err != nil {
			return false
		}
		var consumed uint64
		for _, s := range steps {
			consumed += c.Advance(uint64(s))
		}
		if c.Done() {
			return consumed == total
		}
		return consumed <= total
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSyntheticIntensityMonotoneMemoryRates(t *testing.T) {
	prev := math.Inf(1)
	for _, intensity := range []float64{0, 25, 50, 75, 100} {
		ph, err := SyntheticIntensityPhase("p", intensity, 1000, h())
		if err != nil {
			t.Fatal(err)
		}
		s := ph.StallTimePerInstr(h())
		if s >= prev {
			t.Errorf("stall time not decreasing with intensity at %v%%: %v >= %v", intensity, s, prev)
		}
		prev = s
	}
}

func TestSyntheticPhaseDRAMDominated(t *testing.T) {
	// §7.3: the large footprint makes post-L1 misses mostly reach memory.
	ph, err := SyntheticIntensityPhase("p", 20, 1000, h())
	if err != nil {
		t.Fatal(err)
	}
	if ph.Rates.MemPerInstr <= ph.Rates.L2PerInstr+ph.Rates.L3PerInstr {
		t.Errorf("expected DRAM-dominated rates: %+v", ph.Rates)
	}
}

func TestSyntheticIntensityValidation(t *testing.T) {
	if _, err := SyntheticIntensityPhase("p", -1, 1000, h()); err == nil {
		t.Error("intensity -1 accepted")
	}
	if _, err := SyntheticIntensityPhase("p", 101, 1000, h()); err == nil {
		t.Error("intensity 101 accepted")
	}
	if _, err := SyntheticIntensityPhase("p", 50, 0, h()); err == nil {
		t.Error("zero instructions accepted")
	}
}

func TestHotIdleCharacteristics(t *testing.T) {
	idle := HotIdle()
	if err := idle.Validate(); err != nil {
		t.Fatal(err)
	}
	if idle.Loops != -1 {
		t.Error("idle loop must be infinite")
	}
	ph := idle.Phases[0]
	// §7.1: observed idle IPC around 1.3 — with no stalls, IPC = α.
	if ph.Alpha != 1.3 {
		t.Errorf("idle alpha = %v, want 1.3", ph.Alpha)
	}
	if ph.Rates != (memhier.AccessRates{}) {
		t.Error("idle loop must not touch memory")
	}
}

func TestAppProfilesValid(t *testing.T) {
	for _, p := range []Program{Gzip(1), Gap(1), Mcf(1), Health(1)} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.Phases[0].Name != "init" {
			t.Errorf("%s: first phase %q, want init", p.Name, p.Phases[0].Name)
		}
		if p.Phases[len(p.Phases)-1].Name != "exit" {
			t.Errorf("%s: last phase %q, want exit", p.Name, p.Phases[len(p.Phases)-1].Name)
		}
		if _, finite := p.TotalInstructions(); !finite {
			t.Errorf("%s must be finite", p.Name)
		}
	}
}

func TestAppMemoryIntensityOrdering(t *testing.T) {
	// The paper's premise: mcf and health are memory-intensive, gzip and
	// gap CPU-intensive. Compare the instruction-weighted stall time.
	weightedStall := func(p Program) float64 {
		var stall, instr float64
		for _, ph := range p.Phases {
			stall += ph.StallTimePerInstr(h()) * float64(ph.Instructions)
			instr += float64(ph.Instructions)
		}
		return stall / instr
	}
	gzip, gap := weightedStall(Gzip(1)), weightedStall(Gap(1))
	mcf, health := weightedStall(Mcf(1)), weightedStall(Health(1))
	for name, cpuBound := range map[string]float64{"gzip": gzip, "gap": gap} {
		for memName, memBound := range map[string]float64{"mcf": mcf, "health": health} {
			if cpuBound >= memBound/5 {
				t.Errorf("%s stall %v not ≪ %s stall %v", name, cpuBound, memName, memBound)
			}
		}
	}
}

func TestAppLookup(t *testing.T) {
	for _, name := range []string{"gzip", "gap", "mcf", "health", "idle"} {
		if _, err := App(name, 1); err != nil {
			t.Errorf("App(%q): %v", name, err)
		}
	}
	if _, err := App("doom", 1); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestAppScale(t *testing.T) {
	full := Gzip(1)
	tiny := Gzip(0.01)
	ft, _ := full.TotalInstructions()
	tt, _ := tiny.TotalInstructions()
	if tt >= ft {
		t.Errorf("scaling failed: %d >= %d", tt, ft)
	}
	// Zero scale falls back to 1.
	zero := Gzip(0)
	zt, _ := zero.TotalInstructions()
	if zt != ft {
		t.Errorf("zero scale = %d, want %d", zt, ft)
	}
}

func TestInstructionsForDuration(t *testing.T) {
	ph := Phase{Alpha: 1, Instructions: 1} // 1 cycle/instr, no stalls
	// At 1 GHz for 2 s: 2e9 instructions.
	got := InstructionsForDuration(ph, h(), 1e9, 2)
	if got != 2e9 {
		t.Errorf("InstructionsForDuration = %d, want 2e9", got)
	}
	if got := InstructionsForDuration(ph, h(), 1e9, 1e-12); got != 1 {
		t.Errorf("tiny duration should floor to 1, got %d", got)
	}
}

func TestMixRoundRobin(t *testing.T) {
	a := Program{Name: "a", Phases: []Phase{{Name: "p", Alpha: 1, Instructions: 100}}}
	b := Program{Name: "b", Phases: []Phase{{Name: "p", Alpha: 1, Instructions: 100}}}
	m, err := NewMix(a, b)
	if err != nil {
		t.Fatal(err)
	}
	first := m.PickNext()
	second := m.PickNext()
	if first == second {
		t.Error("round robin returned same job twice")
	}
	third := m.PickNext()
	if third != first {
		t.Error("round robin did not wrap")
	}
}

func TestMixSkipsDoneJobs(t *testing.T) {
	a := Program{Name: "a", Phases: []Phase{{Name: "p", Alpha: 1, Instructions: 10}}}
	b := Program{Name: "b", Phases: []Phase{{Name: "p", Alpha: 1, Instructions: 1000}}}
	m := mustMix(t, a, b)
	// Exhaust job a.
	for _, j := range m.Jobs() {
		if j.Program().Name == "a" {
			j.Advance(10)
		}
	}
	for i := 0; i < 4; i++ {
		j := m.PickNext()
		if j == nil || j.Program().Name != "b" {
			t.Fatalf("pick %d = %v, want b", i, j)
		}
	}
	if m.Done() {
		t.Error("mix not done yet")
	}
}

func TestMixDone(t *testing.T) {
	a := Program{Name: "a", Phases: []Phase{{Name: "p", Alpha: 1, Instructions: 10}}}
	m := mustMix(t, a)
	m.Jobs()[0].Advance(10)
	if !m.Done() {
		t.Error("mix should be done")
	}
	if m.PickNext() != nil {
		t.Error("PickNext on done mix should be nil")
	}
}

func TestNewMixValidation(t *testing.T) {
	if _, err := NewMix(); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := NewMix(Program{}); err == nil {
		t.Error("invalid program accepted")
	}
}
