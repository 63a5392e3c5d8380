package experiments

import (
	"strings"
	"testing"
)

func TestAblationMaskingShowsHiddenLoss(t *testing.T) {
	rep, err := AblationMasking(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The aggregate looked fine to the scheduler...
	if rep.AggregatePredictedLoss >= rep.Epsilon {
		t.Errorf("aggregate predicted loss %.3f not under ε %.3f",
			rep.AggregatePredictedLoss, rep.Epsilon)
	}
	// ...but the frequency dropped well below max...
	if rep.ChosenMHz >= 950 {
		t.Errorf("chosen frequency %.0fMHz — no masking occurred, workload not memory-dominated", rep.ChosenMHz)
	}
	// ...and the CPU-bound job individually blows through the ε bound.
	if rep.MaskedJob != "cpu-job" {
		t.Errorf("masked job = %s, want cpu-job", rep.MaskedJob)
	}
	if rep.MaskedJobLoss <= rep.Epsilon*1.5 {
		t.Errorf("masked loss %.3f not clearly above ε %.3f", rep.MaskedJobLoss, rep.Epsilon)
	}
	// The memory-bound jobs are genuinely near-unharmed.
	for name, loss := range rep.PerJobTrueLoss {
		if strings.HasPrefix(name, "mem-job") && loss > rep.Epsilon+0.05 {
			t.Errorf("%s loss %.3f unexpectedly high", name, loss)
		}
	}
	if !strings.Contains(rep.Render(), "masked job") {
		t.Error("render incomplete")
	}
}

func TestAblationActuatorFidelity(t *testing.T) {
	rep, err := AblationActuator(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	base := rep.Rows[0]
	for _, row := range rep.Rows[1:] {
		rel := row.Seconds/base.Seconds - 1
		if rel < 0 {
			rel = -rel
		}
		// The §6 claim: throttling granularity and settling barely matter;
		// all actuators land within a few percent of each other.
		if rel > 0.05 {
			t.Errorf("%s runtime differs %.1f%% from default", row.Name, rel*100)
		}
	}
}

func TestAblationEpsilonTradeoff(t *testing.T) {
	rep, err := AblationEpsilon(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for i, row := range rep.Rows {
		// Larger ε can only reduce energy (monotone non-increasing within
		// simulation noise) and costs bounded performance.
		if i > 0 && row.NormEnergy > rep.Rows[i-1].NormEnergy+0.03 {
			t.Errorf("energy not non-increasing at ε=%.2f: %.3f after %.3f",
				row.Epsilon, row.NormEnergy, rep.Rows[i-1].NormEnergy)
		}
		if row.NormPerf < 1-row.Epsilon-0.10 {
			t.Errorf("ε=%.2f: perf %.3f lost far more than ε", row.Epsilon, row.NormPerf)
		}
		if row.NormPerf > 1.02 {
			t.Errorf("ε=%.2f: perf %.3f above the fixed run", row.Epsilon, row.NormPerf)
		}
	}
	// mcf saturates: even a small usable ε already buys a large energy cut.
	if rep.Rows[1].NormEnergy > 0.65 { // ε = 5%
		t.Errorf("ε=5%% energy %.3f, want ≤ 0.65 for saturated mcf", rep.Rows[1].NormEnergy)
	}
}
