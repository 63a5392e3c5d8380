package fvsst

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/units"
)

// TestPredictionErrorOnePeriodLater: once two passes have observed a busy
// processor, every further decision scores the previous pass's IPC
// prediction against the elapsed window, and the noise-free machine keeps
// that error small.
func TestPredictionErrorOnePeriodLater(t *testing.T) {
	drv, s := busyDriver(t)
	var buf obs.Buffer
	s.SetSink(&buf)
	if err := drv.Run(0.55); err != nil {
		t.Fatal(err)
	}
	decs := s.Decisions()
	if len(decs) < 4 {
		t.Fatalf("only %d decisions", len(decs))
	}
	// The startup pass has no observation and the first timer pass no
	// banked prediction; from the second timer pass on the error is live.
	for i, d := range decs {
		for _, a := range d.Assignments {
			if i < 2 && a.PredictionValid {
				t.Errorf("decision %d cpu %d: prediction error before any banked prediction", i, a.CPU)
			}
			if i >= 2 && !a.PredictionValid {
				t.Errorf("decision %d cpu %d: no prediction error on a busy CPU", i, a.CPU)
			}
			if a.PredictionValid {
				if err := a.PredictionError; err > 0.2 || err < -0.2 {
					t.Errorf("decision %d cpu %d: prediction error %v implausibly large", i, a.CPU, err)
				}
			}
		}
	}
	// The trace events carry the same quantity.
	seen := false
	for _, e := range buf.Events() {
		for _, c := range e.CPUs {
			if c.IPCErrorValid {
				seen = true
			}
		}
	}
	if !seen {
		t.Error("no trace event carried a valid IPC error")
	}
}

// TestDemotionsExplainDesireActualGap: every processor left below its
// Step-1 desire is accounted for by demotion records, step by step.
func TestDemotionsExplainDesireActualGap(t *testing.T) {
	drv, s := busyDriver(t)
	if err := s.SetBudget(units.Watts(294)); err != nil {
		t.Fatal(err)
	}
	if err := drv.Run(0.25); err != nil {
		t.Fatal(err)
	}
	table := s.Config().Table
	for i, d := range s.Decisions() {
		steps := make(map[int]int)
		for _, dm := range d.Demotions {
			if dm.From <= dm.To {
				t.Fatalf("decision %d: demotion does not lower: %+v", i, dm)
			}
			steps[dm.CPU]++
		}
		for _, a := range d.Assignments {
			gap := table.IndexOf(a.Desired) - table.IndexOf(a.Actual)
			if gap < 0 {
				t.Fatalf("decision %d cpu %d: actual above desired", i, a.CPU)
			}
			if steps[a.CPU] != gap {
				t.Errorf("decision %d cpu %d: %d demotions for a %d-step gap", i, a.CPU, steps[a.CPU], gap)
			}
		}
	}
}

func TestDecisionString(t *testing.T) {
	d := Decision{
		At: 1.5, Trigger: "budget-change", Budget: units.Watts(294),
		TablePower: units.Watts(280), BudgetMet: true,
		Assignments: []Assignment{
			{CPU: 0, Actual: units.MHz(650), Voltage: units.Volts(1.2)},
			{CPU: 1, Actual: units.MHz(250), Voltage: units.Volts(1.1), Idle: true},
		},
	}
	got := d.String()
	for _, want := range []string{"budget-change", "294W", "280W", "cpu0 650MHz/1.2V", "cpu1*250MHz/1.1V"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
}
