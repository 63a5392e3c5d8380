package workload

import (
	"math"
	"testing"

	"repro/internal/counters"
	"repro/internal/memhier"
)

// windowFor synthesises the counter window an ideal machine would produce
// for a phase over instr instructions at freqHz.
func windowFor(ph Phase, instr uint64, freqHz float64) WindowObservation {
	h := memhier.P630()
	cpi := ph.TrueCyclesPerInstr(h, freqHz, 1)
	return WindowObservation{
		FreqHz: freqHz,
		Delta: counters.Delta{
			Window:       float64(instr) * cpi / freqHz,
			Instructions: instr,
			Cycles:       uint64(float64(instr) * cpi),
			L2Refs:       uint64(float64(instr) * ph.Rates.L2PerInstr),
			L3Refs:       uint64(float64(instr) * ph.Rates.L3PerInstr),
			MemRefs:      uint64(float64(instr) * ph.Rates.MemPerInstr),
		},
	}
}

func TestFromObservationsRecoversPhases(t *testing.T) {
	cpu := Phase{Name: "cpu", Alpha: 1.4, Instructions: 1}
	mem := Phase{Name: "mem", Alpha: 1.1,
		Rates:        memhier.AccessRates{L2PerInstr: 0.03, MemPerInstr: 0.02},
		Instructions: 1}
	var obs []WindowObservation
	// 5 windows of CPU work, then 5 of memory work.
	for i := 0; i < 5; i++ {
		obs = append(obs, windowFor(cpu, 10e6, 1e9))
	}
	for i := 0; i < 5; i++ {
		obs = append(obs, windowFor(mem, 1e6, 1e9))
	}
	prog, err := FromObservations("captured", obs, DefaultCaptureConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Similar consecutive windows merge: exactly 2 phases.
	if len(prog.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(prog.Phases))
	}
	p0, p1 := prog.Phases[0], prog.Phases[1]
	if math.Abs(p0.Alpha-1.4) > 0.02 {
		t.Errorf("phase 0 alpha %v, want ≈1.4", p0.Alpha)
	}
	if math.Abs(p1.Alpha-1.1) > 0.02 {
		t.Errorf("phase 1 alpha %v, want ≈1.1", p1.Alpha)
	}
	if p0.Instructions != 50e6 || p1.Instructions != 5e6 {
		t.Errorf("instruction totals %d/%d", p0.Instructions, p1.Instructions)
	}
	if math.Abs(p1.Rates.MemPerInstr-0.02) > 1e-3 {
		t.Errorf("phase 1 mem rate %v", p1.Rates.MemPerInstr)
	}
}

func TestFromObservationsFrequencyInvariant(t *testing.T) {
	// Capturing the same workload measured at a different frequency
	// recovers the same decomposition.
	mem := Phase{Name: "mem", Alpha: 1.1,
		Rates:        memhier.AccessRates{MemPerInstr: 0.02},
		Instructions: 1}
	at1000 := []WindowObservation{windowFor(mem, 1e6, 1e9)}
	at600 := []WindowObservation{windowFor(mem, 1e6, 0.6e9)}
	a, err := FromObservations("a", at1000, DefaultCaptureConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromObservations("b", at600, DefaultCaptureConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Phases[0].Alpha-b.Phases[0].Alpha) > 0.03 {
		t.Errorf("alpha differs across capture frequencies: %v vs %v",
			a.Phases[0].Alpha, b.Phases[0].Alpha)
	}
}

func TestFromObservationsSkipsEmptyWindows(t *testing.T) {
	cpu := Phase{Name: "cpu", Alpha: 1.4, Instructions: 1}
	obs := []WindowObservation{
		windowFor(cpu, 1e6, 1e9),
		{FreqHz: 1e9}, // idle window
		windowFor(cpu, 1e6, 1e9),
	}
	prog, err := FromObservations("x", obs, DefaultCaptureConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Phases) != 1 {
		t.Errorf("phases = %d, want 1 (idle skipped, neighbours merged)", len(prog.Phases))
	}
}

func TestFromObservationsValidation(t *testing.T) {
	cfg := DefaultCaptureConfig()
	if _, err := FromObservations("", nil, cfg); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := FromObservations("x", nil, cfg); err == nil {
		t.Error("no observations accepted")
	}
	if _, err := FromObservations("x", []WindowObservation{{FreqHz: 0, Delta: counters.Delta{Instructions: 1, Cycles: 1}}}, cfg); err == nil {
		t.Error("zero frequency accepted")
	}
	if _, err := FromObservations("x", []WindowObservation{{FreqHz: 1e9}}, cfg); err == nil {
		t.Error("all-empty observations accepted")
	}
	bad := cfg
	bad.MergeTolerance = 0
	if _, err := FromObservations("x", []WindowObservation{windowFor(Phase{Name: "p", Alpha: 1, Instructions: 1}, 1e6, 1e9)}, bad); err == nil {
		t.Error("bad config accepted")
	}
}

func TestFromObservationsClampsAlpha(t *testing.T) {
	// A window whose memory component exceeds its CPI (measurement noise)
	// clamps α at the ceiling rather than going negative.
	o := WindowObservation{
		FreqHz: 1e9,
		Delta: counters.Delta{
			Window: 0.01, Instructions: 1e6, Cycles: 5e5, // IPC 2
			MemRefs: 5e4, // 0.05/instr · 393 cycles ≫ CPI 0.5
		},
	}
	prog, err := FromObservations("x", []WindowObservation{o}, DefaultCaptureConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Phases[0].Alpha; got != 8 {
		t.Errorf("alpha = %v, want clamp at 8", got)
	}
}

// TestCaptureReplayRoundTrip is the headline: capture a run's counter
// windows, rebuild a profile, replay it, and compare the counter signature.
func TestCaptureReplayRoundTrip(t *testing.T) {
	orig := Mcf(0.05)
	// Synthesize per-phase windows (one per phase visit at 1 GHz).
	var obs []WindowObservation
	cur, err := NewCursor(orig)
	if err != nil {
		t.Fatal(err)
	}
	for !cur.Done() {
		ph := cur.Current()
		n, _ := cur.AdvanceWithinPhase(ph.Instructions)
		obs = append(obs, windowFor(*ph, n, 1e9))
	}
	captured, err := FromObservations("mcf-replay", obs, DefaultCaptureConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Total instructions conserved.
	wantTotal, _ := orig.TotalInstructions()
	gotTotal, _ := captured.TotalInstructions()
	if gotTotal != wantTotal {
		t.Errorf("instructions %d, want %d", gotTotal, wantTotal)
	}
	// Instruction-weighted stall time conserved within 2%.
	h := memhier.P630()
	weighted := func(p Program) float64 {
		var s, n float64
		cur, _ := NewCursor(p)
		for !cur.Done() {
			ph := cur.Current()
			c, _ := cur.AdvanceWithinPhase(ph.Instructions)
			s += ph.StallTimePerInstr(h) * float64(c)
			n += float64(c)
		}
		return s / n
	}
	a, b := weighted(orig), weighted(captured)
	if math.Abs(a-b)/a > 0.02 {
		t.Errorf("weighted stall %v vs %v", b, a)
	}
}
