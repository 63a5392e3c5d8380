package machine

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/memhier"
	"repro/internal/units"
	"repro/internal/workload"
)

func mcfLikePhase() workload.Phase {
	return workload.Phase{
		Name: "simplex", Alpha: 1.1,
		Rates:        memhier.AccessRates{L2PerInstr: 0.030, L3PerInstr: 0.006, MemPerInstr: 0.024},
		Instructions: 1,
	}
}

func microCPUPhase() workload.Phase {
	return workload.Phase{Name: "cpu", Alpha: 1.4, Instructions: 1, NonMemStallCyclesPerInstr: 0.1}
}

func TestMicroConfigValidate(t *testing.T) {
	good := defaultMicroConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.BlockSize = 0
	if bad.Validate() == nil {
		t.Error("zero block accepted")
	}
	bad = good
	bad.OverlapFactor = 0
	if bad.Validate() == nil {
		t.Error("zero overlap accepted")
	}
	bad = good
	bad.OverlapFactor = 1.5
	if bad.Validate() == nil {
		t.Error("overlap > 1 accepted")
	}
	bad = good
	bad.Hier.RefClock = 0
	if bad.Validate() == nil {
		t.Error("broken hierarchy accepted")
	}
}

func TestMicroRunValidation(t *testing.T) {
	cfg := defaultMicroConfig()
	if _, err := microRun(cfg, mcfLikePhase(), 0, 1000); err == nil {
		t.Error("zero frequency accepted")
	}
	if _, err := microRun(cfg, mcfLikePhase(), units.GHz(1), 0); err == nil {
		t.Error("zero instructions accepted")
	}
	if _, err := microRun(cfg, workload.Phase{}, units.GHz(1), 1); err == nil {
		t.Error("invalid phase accepted")
	}
}

// TestMicroMatchesAnalyticModel is the validation the micro-simulator
// exists for: the Monte-Carlo execution agrees with the closed-form CPI to
// well under 1% for memory-bound and CPU-bound work across the frequency
// range.
func TestMicroMatchesAnalyticModel(t *testing.T) {
	cfg := defaultMicroConfig()
	const n = 2_000_000
	for _, phase := range []workload.Phase{mcfLikePhase(), microCPUPhase()} {
		for _, f := range []units.Frequency{units.MHz(250), units.MHz(500), units.MHz(650), units.GHz(1)} {
			rel, err := microRelativeError(cfg, phase, f, n)
			if err != nil {
				t.Fatal(err)
			}
			if rel > 0.005 {
				t.Errorf("%s at %v: micro vs analytic error %.4f > 0.5%%", phase.Name, f, rel)
			}
		}
	}
}

// TestMicroIPCFrequencyBehaviour: the micro-simulated IPC falls with
// frequency for memory-bound work (the saturation mechanism) and is flat
// for pure-CPU work.
func TestMicroIPCFrequencyBehaviour(t *testing.T) {
	cfg := defaultMicroConfig()
	const n = 1_000_000
	mem := mcfLikePhase()
	lo, err := microRun(cfg, mem, units.MHz(500), n)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := microRun(cfg, mem, units.GHz(1), n)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo.IPC() > hi.IPC()) {
		t.Errorf("memory-bound IPC should fall with frequency: %v vs %v", lo.IPC(), hi.IPC())
	}
	// But wall-clock performance still rises (sub-linearly).
	if !(hi.Seconds(units.GHz(1)) < lo.Seconds(units.MHz(500))) {
		t.Error("higher frequency should still finish sooner")
	}

	cpu := microCPUPhase()
	loc, _ := microRun(cfg, cpu, units.MHz(500), n)
	hic, _ := microRun(cfg, cpu, units.GHz(1), n)
	if math.Abs(loc.IPC()-hic.IPC()) > 1e-9 {
		t.Errorf("pure-CPU IPC should be frequency-invariant: %v vs %v", loc.IPC(), hic.IPC())
	}
}

// TestMicroReferenceCountsMatchRates: the drawn reference counts converge to
// the phase's rates.
func TestMicroReferenceCountsMatchRates(t *testing.T) {
	cfg := defaultMicroConfig()
	const n = 4_000_000
	res, err := microRun(cfg, mcfLikePhase(), units.GHz(1), n)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		got  uint64
		want float64
	}{
		{"L2", res.L2Refs, 0.030 * n},
		{"L3", res.L3Refs, 0.006 * n},
		{"mem", res.MemRefs, 0.024 * n},
	}
	for _, c := range checks {
		rel := math.Abs(float64(c.got)-c.want) / c.want
		if rel > 0.01 {
			t.Errorf("%s refs %d vs expected %.0f (%.2f%% off)", c.name, c.got, c.want, rel*100)
		}
	}
}

// TestMicroOverlapReducesCycles: memory-level parallelism (overlap < 1) can
// only speed things up, and the analytic model (overlap = 1) is the upper
// bound on cycles.
func TestMicroOverlapReducesCycles(t *testing.T) {
	serial := defaultMicroConfig()
	overlapped := defaultMicroConfig()
	overlapped.OverlapFactor = 0.6
	const n = 500_000
	a, err := microRun(serial, mcfLikePhase(), units.GHz(1), n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := microRun(overlapped, mcfLikePhase(), units.GHz(1), n)
	if err != nil {
		t.Fatal(err)
	}
	if b.Cycles >= a.Cycles {
		t.Errorf("overlap did not reduce cycles: %v vs %v", b.Cycles, a.Cycles)
	}
}

func TestMicroDeterministicPerSeed(t *testing.T) {
	cfg := defaultMicroConfig()
	a, _ := microRun(cfg, mcfLikePhase(), units.GHz(1), 100_000)
	b, _ := microRun(cfg, mcfLikePhase(), units.GHz(1), 100_000)
	if a != b {
		t.Error("same seed diverged")
	}
	cfg.Seed = 2
	c, _ := microRun(cfg, mcfLikePhase(), units.GHz(1), 100_000)
	if a == c {
		t.Error("different seeds identical (suspicious)")
	}
}

// Property: for any physical rates, the micro-simulated cycle count stays
// within a few percent of the analytic model even at small n.
func TestMicroAnalyticAgreementProperty(t *testing.T) {
	cfg := defaultMicroConfig()
	err := quick.Check(func(l2Raw, memRaw, fRaw uint16) bool {
		phase := workload.Phase{
			Name: "p", Alpha: 1.2, Instructions: 1,
			Rates: memhier.AccessRates{
				L2PerInstr:  float64(l2Raw%40) / 1000,
				MemPerInstr: float64(memRaw%30) / 1000,
			},
		}
		f := units.MHz(float64(fRaw%750) + 250)
		// At n = 1M the Monte-Carlo σ on total cycles is ≲1%, so a 4%
		// bound sits beyond 4σ.
		rel, err := microRelativeError(cfg, phase, f, 1_000_000)
		return err == nil && rel < 0.04
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}
