package fvsst

import (
	"strings"
	"testing"

	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("empty log accepted")
	}
}

func TestSummarizeCountsAndResidency(t *testing.T) {
	mk := func(trigger string, met bool, f0 units.Frequency, clipped, idle bool) Decision {
		a := Assignment{CPU: 0, Actual: f0, Desired: f0, Idle: idle}
		if clipped {
			a.Desired = units.GHz(1)
		}
		return Decision{
			Trigger:     trigger,
			BudgetMet:   met,
			Assignments: []Assignment{a},
		}
	}
	decisions := []Decision{
		mk("timer", true, units.MHz(650), false, false),
		mk("timer", true, units.MHz(650), false, false),
		mk("budget-change", true, units.MHz(500), true, false),
		mk("timer", false, units.MHz(250), true, true),
	}
	s, err := Summarize(decisions)
	if err != nil {
		t.Fatal(err)
	}
	if s.Decisions != 4 || s.BudgetMisses != 1 {
		t.Errorf("decisions=%d misses=%d", s.Decisions, s.BudgetMisses)
	}
	if s.Triggers["timer"] != 3 || s.Triggers["budget-change"] != 1 {
		t.Errorf("triggers = %v", s.Triggers)
	}
	c := s.PerCPU[0]
	if c.Residency[650] != 0.5 || c.Residency[500] != 0.25 {
		t.Errorf("residency = %v", c.Residency)
	}
	if c.ClippedFraction != 0.5 {
		t.Errorf("clipped = %v", c.ClippedFraction)
	}
	if c.IdleFraction != 0.25 {
		t.Errorf("idle = %v", c.IdleFraction)
	}
	if got := c.MeanFreqMHz; got != (650+650+500+250)/4.0 {
		t.Errorf("mean = %v", got)
	}
	if !strings.Contains(s.Render(), "650MHz") {
		t.Errorf("render:\n%s", s.Render())
	}
}

// TestSummaryRenderTiesInFrequencyOrder: residencies with equal shares
// rank lower frequency first, so the table is the same bytes every time
// whatever order the residency map iterates in.
func TestSummaryRenderTiesInFrequencyOrder(t *testing.T) {
	var decisions []Decision
	for _, mhz := range []float64{550, 350, 450, 250} {
		decisions = append(decisions, Decision{Assignments: []Assignment{{CPU: 0, Actual: units.MHz(mhz), Desired: units.MHz(mhz)}}})
	}
	s, err := Summarize(decisions)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Render()
	if !strings.Contains(want, "250MHz 25%, 350MHz 25%, 450MHz 25%") {
		t.Fatalf("tied residencies not in frequency order:\n%s", want)
	}
	for i := 0; i < 50; i++ {
		if got := s.Render(); got != want {
			t.Fatalf("render %d differs:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

func TestSummarizeRejectsRaggedLog(t *testing.T) {
	decisions := []Decision{
		{Assignments: []Assignment{{CPU: 0}}},
		{Assignments: []Assignment{{CPU: 0}, {CPU: 1}}},
	}
	if _, err := Summarize(decisions); err == nil {
		t.Error("ragged log accepted")
	}
}

func TestSummarizeEndToEnd(t *testing.T) {
	m := quietMachine(t)
	mix, _ := workload.NewMix(memProgram("mem", 1e12))
	m.SetMix(3, mix)
	cfg := noOverheadConfig()
	// Without the idle signal, the 294 W cap would make the three
	// hot-idle CPUs compete with the benchmark and drive it to the floor
	// (the §5 pathology); park them so CPU 3 keeps its saturation band.
	cfg.UseIdleSignal = true
	s, err := New(cfg, m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	budgets, _ := power.NewBudgetSchedule(units.Watts(560),
		power.BudgetEvent{At: 0.5, Budget: units.Watts(294)})
	drv.Budgets = budgets
	if err := drv.Run(1.0); err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(s.Decisions())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Triggers["budget-change"] != 1 || sum.Triggers["startup"] != 1 {
		t.Errorf("triggers = %v", sum.Triggers)
	}
	// The memory-bound CPU's dominant residency is in the saturation band.
	best, bestFrac := 0.0, 0.0
	for mhz, frac := range sum.PerCPU[3].Residency {
		if frac > bestFrac {
			best, bestFrac = mhz, frac
		}
	}
	if best < 600 || best > 700 {
		t.Errorf("dominant residency %v MHz", best)
	}
}
