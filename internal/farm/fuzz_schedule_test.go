package farm

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/power"
	"repro/internal/units"
)

// FuzzParseScheduleSpec drives the budget-schedule parser with arbitrary
// specs: it must never panic, and whenever it accepts a spec the
// resulting source must yield finite positive budgets at all times (a
// schedule that can emit zero or NaN watts would poison every layer
// above it), every event time the spec lists must be finite and
// non-negative, and at each event time the budget must be the spec's
// own: that of the latest-listed event among those with the largest
// time at or before it.
func FuzzParseScheduleSpec(f *testing.F) {
	f.Add("900")
	f.Add("900,1:600,3:750W")
	f.Add("0.9kW,0.5:600W")
	f.Add("900,")
	f.Add(",900")
	f.Add("900,x:600")
	f.Add("900,1:")
	f.Add("900,1:600,1:600")
	f.Add("900,2:500,1:600,2:700")
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
		events := specEvents(t, spec)
		probes := []float64{0, 0.5, 1, 3, 1e6}
		for _, e := range events[1:] {
			if math.IsNaN(e.At) || math.IsInf(e.At, 0) || e.At < 0 {
				t.Fatalf("spec %q: accepted an event at t=%v", spec, e.At)
			}
			probes = append(probes, e.At)
		}
		for _, at := range probes {
			b := src.BudgetAt(at).W()
			if math.IsNaN(b) || math.IsInf(b, 0) || b <= 0 {
				t.Fatalf("spec %q: budget %v at t=%v not finite positive", spec, b, at)
			}
		}
		for _, e := range events[1:] {
			want, latest := events[0].Budget, math.Inf(-1)
			for _, o := range events {
				if o.At <= e.At && o.At >= latest {
					want, latest = o.Budget, o.At
				}
			}
			if got := src.BudgetAt(e.At); got != want {
				t.Fatalf("spec %q: budget %v at t=%v, the spec says %v", spec, got, e.At, want)
			}
		}
	})
}

// specEvents re-reads an accepted spec's text: the initial budget as an
// event at -Inf, then each listed t:budget event in spec order.
func specEvents(t *testing.T, spec string) []power.BudgetEvent {
	parts := strings.Split(spec, ",")
	initial, err := units.ParsePower(parts[0])
	if err != nil {
		t.Fatalf("spec %q accepted with initial budget %q: %v", spec, parts[0], err)
	}
	events := []power.BudgetEvent{{At: math.Inf(-1), Budget: initial}}
	for _, part := range parts[1:] {
		at, budget, _ := strings.Cut(part, ":")
		tm, err := strconv.ParseFloat(strings.TrimSpace(at), 64)
		if err != nil {
			t.Fatalf("spec %q accepted with event time %q: %v", spec, at, err)
		}
		b, err := units.ParsePower(budget)
		if err != nil {
			t.Fatalf("spec %q accepted with event budget %q: %v", spec, budget, err)
		}
		events = append(events, power.BudgetEvent{At: tm, Budget: b})
	}
	return events
}
