package farm

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestUPSValidation(t *testing.T) {
	if _, err := NewUPS(0, 5); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewUPS(units.Joules(100), 0); err == nil {
		t.Error("zero runway accepted")
	}
	if _, err := NewUPS(units.Joules(-1), 5); err == nil {
		t.Error("negative capacity accepted")
	}
}

// TestUPSBudgetDecayMonotone pins the runway governor's shape: draining
// at exactly the offered budget each period yields a strictly decreasing
// budget (exponential decay) that never empties the battery.
func TestUPSBudgetDecayMonotone(t *testing.T) {
	u, err := NewUPS(units.Joules(10000), 5)
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.1
	prev := u.BudgetAt(0)
	if got := prev.W(); got != 2000 {
		t.Fatalf("initial budget = %v, want 2000W (10000J / 5s)", prev)
	}
	for i := 0; i < 200; i++ {
		b := u.BudgetAt(float64(i) * dt)
		if i > 0 && b >= prev {
			t.Fatalf("budget not strictly decreasing at step %d: %v → %v", i, prev, b)
		}
		prev = b
		if err := u.Drain(b, dt); err != nil {
			t.Fatal(err)
		}
		if u.Empty() {
			t.Fatalf("battery emptied at step %d under compliant drain", i)
		}
	}
	// 20 s at a 5 s runway: E/E₀ should be close to e^(−4).
	ratio := u.Remaining().J() / 10000
	if want := math.Exp(-4); math.Abs(ratio-want)/want > 0.05 {
		t.Errorf("E/E₀ after 20s = %.4f, want ≈ e^−4 = %.4f", ratio, want)
	}
}

// TestUPSRunwayGuarantee is the governor's contract: a consumer that
// drains at most the budget offered at the start of each period keeps the
// instantaneous runway (remaining energy / current draw) at or above the
// configured runway, within one period.
func TestUPSRunwayGuarantee(t *testing.T) {
	const runway = 4.0
	const period = 0.25
	u, err := NewUPS(units.Joules(8000), runway)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		now := float64(i) * period
		draw := u.BudgetAt(now)
		if err := u.Drain(draw, period); err != nil {
			t.Fatal(err)
		}
		// Even at the worst point — a full period elapsed since the budget
		// was computed, drain still at the stale (higher) rate — the
		// instantaneous runway has given up at most that one period.
		if got := u.RunwayAt(now+period, draw); got < runway-period-1e-9 {
			t.Fatalf("t=%.2f: runway %v fell below the %v−%v guarantee", now+period, got, runway, period)
		}
	}
}

// TestUPSDrainClamps covers the drain meter: it integrates what was
// charged, the store clamps at zero and reports Empty, and a negative
// window is refused.
func TestUPSDrainClamps(t *testing.T) {
	u, err := NewUPS(units.Joules(1000), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Drain(units.Watts(100), 5); err != nil { // −500 J
		t.Fatal(err)
	}
	if got := u.Remaining().J(); got != 500 {
		t.Fatalf("remaining after drain = %vJ, want 500", got)
	}
	// Over-drain clamps at zero and reports Empty.
	if err := u.Drain(units.Watts(1e6), 10); err != nil {
		t.Fatal(err)
	}
	if !u.Empty() || u.Remaining() != 0 {
		t.Errorf("over-drain left %v stored, Empty=%v", u.Remaining(), u.Empty())
	}
	if err := u.Drain(units.Watts(10), -1); err == nil {
		t.Error("negative dt accepted")
	}
}

// TestUPSMaxOutput pins the inverter cap.
func TestUPSMaxOutput(t *testing.T) {
	u, err := NewUPS(units.Joules(100000), 1)
	if err != nil {
		t.Fatal(err)
	}
	u.MaxOutput = units.Watts(500)
	if got := u.BudgetAt(0); got.W() != 500 {
		t.Errorf("capped budget = %v, want 500W", got)
	}
	if got := u.RunwayAt(0, 0); !math.IsInf(got, 1) {
		t.Errorf("runway at zero draw = %v, want +Inf", got)
	}
}
