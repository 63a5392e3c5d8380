package baseline

import (
	"math"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/units"
)

func TestPolicyNames(t *testing.T) {
	for pol, want := range map[Policy]string{
		Uniform{}:        "uniform",
		PowerDown{}:      "powerdown",
		UtilizationDVS{}: "util-dvs",
		FVSST{}:          "fvsst",
	} {
		if got := pol.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestMeanNormPerf(t *testing.T) {
	fMax := units.GHz(1)
	cpu := &perfmodel.Decomposition{InvAlpha: 1} // pure CPU: perf ∝ f
	decs := []*perfmodel.Decomposition{cpu, cpu, cpu, nil}
	idle := []bool{false, false, true, false}

	// CPU0 at full speed (1.0), CPU1 at half (0.5); CPU2 idle and CPU3
	// data-less are excluded. Mean = 0.75.
	assigned := []units.Frequency{units.GHz(1), units.MHz(500), units.GHz(1), units.GHz(1)}
	got := MeanNormPerf(decs, idle, assigned, fMax)
	if math.Abs(got-0.75) > 1e-12 {
		t.Errorf("MeanNormPerf = %v, want 0.75", got)
	}

	// A powered-off busy processor contributes 0.
	assigned[1] = 0
	got = MeanNormPerf(decs, idle, assigned, fMax)
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("with power-down = %v, want 0.5", got)
	}

	// No scorable processors → 0.
	if got := MeanNormPerf([]*perfmodel.Decomposition{nil}, []bool{false},
		[]units.Frequency{units.GHz(1)}, fMax); got != 0 {
		t.Errorf("empty = %v", got)
	}
}
