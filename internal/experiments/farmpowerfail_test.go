package experiments

import (
	"strings"
	"testing"
)

// TestFarmPowerFail is the acceptance check for the farm study: the
// hierarchical allocator meets the UPS runway with strictly lower
// aggregate predicted loss than both baselines, never overshoots the
// shrinking budget (even across the data cluster's partition, which must
// expire at least one lease), and renders deterministically.
func TestFarmPowerFail(t *testing.T) {
	r, err := FarmPowerFail(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	h, e, u := r.Hierarchical, r.EqualSplit, r.Uniform

	if !(h.LossSeconds < e.LossSeconds) {
		t.Errorf("hierarchical loss %.3f not below equal-split %.3f", h.LossSeconds, e.LossSeconds)
	}
	if !(h.LossSeconds < u.LossSeconds) {
		t.Errorf("hierarchical loss %.3f not below uniform %.3f", h.LossSeconds, u.LossSeconds)
	}
	for _, p := range []FarmPolicyOutcome{h, e} {
		if p.OvershootSec != 0 {
			t.Errorf("%s: %v s of budget overshoot, want 0 (conservation invariant)", p.Policy, p.OvershootSec)
		}
	}
	if !h.RunwayMet {
		t.Errorf("hierarchical runway not met: min runway %.2fs of %.0fs, UPS left %.0fJ",
			h.MinRunwaySec, r.RunwaySec, h.UPSRemainingJ)
	}
	if h.LeaseExpiries < 1 {
		t.Errorf("%d lease expiries, want ≥ 1 (the data cluster's lease must lapse during the partition)", h.LeaseExpiries)
	}
	if h.Reallocs < int(r.Duration/0.1)/2 {
		t.Errorf("only %d reallocations over %.0fs", h.Reallocs, r.Duration)
	}
	if h.BudgetReallocs < 1 {
		t.Errorf("no budget-change reallocation despite the UPS governor shrinking the budget")
	}
	out := r.Render()
	for _, want := range []string{"hierarchical", "equal-split", "uniform", "lease expiries"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestFarmPowerFailDeterministic: the full report is byte-identical
// across runs with the same options.
func TestFarmPowerFailDeterministic(t *testing.T) {
	a, err := FarmPowerFail(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := FarmPowerFail(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Errorf("renders differ:\n--- first\n%s\n--- second\n%s", a.Render(), b.Render())
	}
}
