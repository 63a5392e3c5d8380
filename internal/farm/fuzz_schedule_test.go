package farm

import (
	"math"
	"strings"
	"testing"

	"repro/internal/power"
)

// FuzzParseScheduleSpec drives the budget-schedule parser with arbitrary
// specs: it must never panic, and whenever it accepts a spec the
// resulting source must yield finite positive budgets at all times (a
// schedule that can emit zero or NaN watts would poison every layer
// above it).
func FuzzParseScheduleSpec(f *testing.F) {
	f.Add("900")
	f.Add("900,1:600,3:750W")
	f.Add("0.9kW,0.5:600W")
	f.Add("900,")
	f.Add(",900")
	f.Add("900,x:600")
	f.Add("900,1:")
	f.Add("900,1:600,1:600")
	f.Add("-5")
	f.Add("900,-1:600")
	f.Add(strings.Repeat("9", 400))
	f.Fuzz(func(t *testing.T, spec string) {
		src, err := power.ParseScheduleSpec(spec)
		if err != nil {
			if src != nil {
				t.Fatalf("error %v with non-nil source", err)
			}
			return
		}
		if src == nil {
			t.Fatal("nil source without error")
		}
		for _, at := range []float64{0, 0.5, 1, 3, 1e6} {
			b := src.BudgetAt(at).W()
			if math.IsNaN(b) || math.IsInf(b, 0) || b <= 0 {
				t.Fatalf("spec %q: budget %v at t=%v not finite positive", spec, b, at)
			}
		}
	})
}
