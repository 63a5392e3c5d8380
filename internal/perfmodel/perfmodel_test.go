package perfmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/counters"
	"repro/internal/memhier"
	"repro/internal/units"
)

func pred(t *testing.T) Predictor {
	t.Helper()
	p, err := New(memhier.P630())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// syntheticDelta builds the counter delta an ideal machine would produce
// for a workload with the given α and rates over instr instructions at
// frequency f.
func syntheticDelta(alpha float64, rates memhier.AccessRates, instr uint64, f units.Frequency) counters.Delta {
	h := memhier.P630()
	stall := rates.StallTimePerInstr(h)
	cpi := 1/alpha + stall*f.Hz()
	cycles := uint64(float64(instr) * cpi)
	return counters.Delta{
		Window:       float64(cycles) / f.Hz(),
		Instructions: instr,
		Cycles:       cycles,
		L2Refs:       uint64(float64(instr) * rates.L2PerInstr),
		L3Refs:       uint64(float64(instr) * rates.L3PerInstr),
		MemRefs:      uint64(float64(instr) * rates.MemPerInstr),
	}
}

func TestNewRejectsBrokenHierarchy(t *testing.T) {
	h := memhier.P630()
	h.RefClock = 0
	if _, err := New(h); err == nil {
		t.Error("broken hierarchy accepted")
	}
}

func TestObservationValidate(t *testing.T) {
	good := Observation{
		Delta: counters.Delta{Window: 0.01, Instructions: 100, Cycles: 100},
		Freq:  units.GHz(1),
	}
	if err := good.Validate(); err != nil {
		t.Errorf("good observation rejected: %v", err)
	}
	bad := good
	bad.Freq = 0
	if bad.Validate() == nil {
		t.Error("zero frequency accepted")
	}
	bad = good
	bad.Delta.Instructions = 0
	if bad.Validate() == nil {
		t.Error("no-work observation accepted")
	}
}

func TestDecomposeRecoversKnownWorkload(t *testing.T) {
	p := pred(t)
	alpha := 1.4
	rates := memhier.AccessRates{L2PerInstr: 0.01, L3PerInstr: 0.002, MemPerInstr: 0.005}
	f := units.GHz(1)
	obs := Observation{Delta: syntheticDelta(alpha, rates, 1e9, f), Freq: f}
	d, err := p.Decompose(obs)
	if err != nil {
		t.Fatal(err)
	}
	wantStall := rates.StallTimePerInstr(memhier.P630())
	if math.Abs(d.StallSecPerInstr-wantStall)/wantStall > 1e-6 {
		t.Errorf("stall = %v, want %v", d.StallSecPerInstr, wantStall)
	}
	if math.Abs(d.InvAlpha-1/alpha) > 1e-3 {
		t.Errorf("invAlpha = %v, want %v", d.InvAlpha, 1/alpha)
	}
}

func TestDecomposeClampsImplausibleAlpha(t *testing.T) {
	p := pred(t)
	// An observation whose memory term alone exceeds the observed CPI:
	// IPC=2 (CPI=0.5) but huge reported memory counts.
	d := counters.Delta{
		Window: 0.01, Instructions: 1000, Cycles: 500,
		MemRefs: 100, // 0.1/instr · 393ns · 1GHz = 39.3 cycles/instr ≫ 0.5
	}
	dec, err := p.Decompose(Observation{Delta: d, Freq: units.GHz(1)})
	if err != nil {
		t.Fatal(err)
	}
	if dec.InvAlpha != 1/MaxAlpha {
		t.Errorf("InvAlpha = %v, want clamp at %v", dec.InvAlpha, 1/MaxAlpha)
	}
}

func TestIPCPredictionAcrossFrequencies(t *testing.T) {
	// Decompose at 1 GHz, predict at 500 MHz, compare against the ground
	// truth of the same workload at 500 MHz.
	p := pred(t)
	alpha := 1.2
	rates := memhier.AccessRates{L2PerInstr: 0.02, MemPerInstr: 0.01}
	obs := Observation{Delta: syntheticDelta(alpha, rates, 1e9, units.GHz(1)), Freq: units.GHz(1)}
	d, err := p.Decompose(obs)
	if err != nil {
		t.Fatal(err)
	}
	truth500 := syntheticDelta(alpha, rates, 1e9, units.MHz(500)).IPC()
	got := d.IPCAt(units.MHz(500))
	if math.Abs(got-truth500)/truth500 > 1e-3 {
		t.Errorf("predicted IPC@500MHz = %v, truth %v", got, truth500)
	}
}

func TestIPCMonotonicity(t *testing.T) {
	d := Decomposition{InvAlpha: 1 / 1.4, StallSecPerInstr: 5e-9}
	// IPC falls with frequency (more cycles wasted per memory access),
	// performance rises with frequency.
	if !(d.IPCAt(units.MHz(500)) > d.IPCAt(units.GHz(1))) {
		t.Error("IPC should decrease with frequency")
	}
	if !(d.PerfAt(units.MHz(500)) < d.PerfAt(units.GHz(1))) {
		t.Error("Perf should increase with frequency")
	}
}

func TestPerfLossSigns(t *testing.T) {
	d := Decomposition{InvAlpha: 1 / 1.4, StallSecPerInstr: 2e-9}
	loss := d.PerfLoss(units.GHz(1), units.MHz(600))
	if loss <= 0 || loss >= 1 {
		t.Errorf("loss going down = %v, want in (0,1)", loss)
	}
	gain := d.PerfLoss(units.MHz(600), units.GHz(1))
	if gain >= 0 {
		t.Errorf("going up should be a negative loss, got %v", gain)
	}
	if d.PerfLoss(units.GHz(1), units.GHz(1)) != 0 {
		t.Error("same frequency should have zero loss")
	}
}

func TestPureCPUWorkloadLossIsLinear(t *testing.T) {
	// With no memory component, halving frequency halves performance.
	d := Decomposition{InvAlpha: 1 / 1.3, StallSecPerInstr: 0}
	loss := d.PerfLoss(units.GHz(1), units.MHz(500))
	if math.Abs(loss-0.5) > 1e-12 {
		t.Errorf("pure-CPU loss at half frequency = %v, want 0.5", loss)
	}
}

func TestMemoryBoundWorkloadSaturates(t *testing.T) {
	// Calibrated like mcf: α·S·1GHz ≈ 9.3 → dropping 1 GHz → 650 MHz
	// loses under 5%.
	d := Decomposition{InvAlpha: 1 / 1.1, StallSecPerInstr: 8.44e-9}
	loss := d.PerfLoss(units.GHz(1), units.MHz(650))
	if loss >= 0.05 {
		t.Errorf("memory-bound loss at 650MHz = %v, want < 0.05", loss)
	}
}

func TestIdealFrequencyCPUBound(t *testing.T) {
	// Predicted IPC at fmax > 1 → f_ideal = fmax (§5).
	d := Decomposition{InvAlpha: 1 / 1.4, StallSecPerInstr: 0.1e-9}
	f, err := d.IdealFrequency(units.GHz(1), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if f != units.GHz(1) {
		t.Errorf("CPU-bound ideal = %v, want fmax", f)
	}
}

func TestIdealFrequencyMemoryBound(t *testing.T) {
	d := Decomposition{InvAlpha: 1 / 1.1, StallSecPerInstr: 8.44e-9}
	f, err := d.IdealFrequency(units.GHz(1), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if f >= units.GHz(1) || f <= units.MHz(400) {
		t.Fatalf("ideal frequency = %v, want interior", f)
	}
	// Defining property: performance at f_ideal is exactly (1-ε)·Perf(fmax).
	want := d.PerfAt(units.GHz(1)) * 0.95
	got := d.PerfAt(f)
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("Perf(f_ideal) = %v, want %v", got, want)
	}
}

func TestIdealFrequencyValidation(t *testing.T) {
	d := Decomposition{InvAlpha: 1, StallSecPerInstr: 1e-9}
	if _, err := d.IdealFrequency(units.GHz(1), 0); err == nil {
		t.Error("epsilon=0 accepted")
	}
	if _, err := d.IdealFrequency(units.GHz(1), 1); err == nil {
		t.Error("epsilon=1 accepted")
	}
	if _, err := d.IdealFrequency(units.GHz(1), math.NaN()); err == nil {
		t.Error("epsilon=NaN accepted")
	}
	if _, err := d.IdealFrequency(0, 0.05); err == nil {
		t.Error("fmax=0 accepted")
	}
}

func TestIdealFrequencyNeverExceedsFmaxProperty(t *testing.T) {
	err := quick.Check(func(aRaw, sRaw uint16) bool {
		alpha := 0.2 + float64(aRaw%60)/10 // 0.2 .. 6.1
		stall := float64(sRaw%1000) * 1e-11
		d := Decomposition{InvAlpha: 1 / alpha, StallSecPerInstr: stall}
		f, err := d.IdealFrequency(units.GHz(1), 0.05)
		if err != nil {
			return false
		}
		return f > 0 && f <= units.GHz(1)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// Property: prediction round-trip. For any physical workload, decomposing a
// synthetic observation at frequency g and predicting at g itself must
// reproduce the observed IPC.
func TestDecomposeSelfConsistencyProperty(t *testing.T) {
	p := pred(t)
	err := quick.Check(func(aRaw, l2Raw, memRaw, fRaw uint16) bool {
		alpha := 0.5 + float64(aRaw%30)/10
		rates := memhier.AccessRates{
			L2PerInstr:  float64(l2Raw%50) / 1000,
			MemPerInstr: float64(memRaw%30) / 1000,
		}
		f := units.MHz(float64(fRaw%750) + 250)
		obs := Observation{Delta: syntheticDelta(alpha, rates, 1e8, f), Freq: f}
		if obs.Validate() != nil {
			return true // degenerate rounding case, skip
		}
		d, err := p.Decompose(obs)
		if err != nil {
			return false
		}
		return math.Abs(d.IPCAt(f)-obs.Delta.IPC()) < 1e-2
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
