package fvsst

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestIdleTransitionTrigger: with the idle signal enabled, a job finishing
// mid-period triggers an immediate "idle-transition" decision that parks
// the processor, without waiting for the next timer pass.
func TestIdleTransitionTrigger(t *testing.T) {
	m := quietMachine(t)
	// A job sized to finish at ≈0.23 s, i.e. mid-way between the timer
	// passes at 0.2 and 0.3 s.
	mix, err := workload.NewMix(workload.Program{Name: "short", Phases: []workload.Phase{
		{Name: "c", Alpha: 1.4, Instructions: 320e6},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMix(2, mix); err != nil {
		t.Fatal(err)
	}
	cfg := noOverheadConfig()
	cfg.UseIdleSignal = true
	s, err := New(cfg, m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	rec := recordDecisions(s)
	if err := drv.Run(0.4); err != nil {
		t.Fatal(err)
	}
	var transition *Decision
	for i, d := range rec.decs {
		if d.Trigger == "idle-transition" {
			transition = &rec.decs[i]
			break
		}
	}
	if transition == nil {
		t.Fatal("no idle-transition decision")
	}
	// It fired within two quanta of the job's completion...
	comps := m.Completions()
	if len(comps) != 1 {
		t.Fatalf("completions = %d", len(comps))
	}
	if dt := transition.At - comps[0].At; dt < 0 || dt > 0.021 {
		t.Errorf("idle transition %.3fs after completion", dt)
	}
	// ...and parked the processor.
	if a := transition.Assignments[2]; !a.Idle || a.Actual != units.MHz(250) {
		t.Errorf("transition decision did not park cpu2: %+v", a)
	}
}

// TestTriggerAttribution: each of the paper's reschedule causes — the
// startup pass, the periodic timer, a budget change and an idle
// transition — produces exactly one trace event carrying its trigger
// label, and the event stream mirrors the passes one-to-one.
func TestTriggerAttribution(t *testing.T) {
	cases := []struct {
		name    string
		trigger string
		until   float64
		setup   func(t *testing.T) (*Driver, *Scheduler)
	}{
		{
			// Only the initial pass before the first timer period.
			name: "startup", trigger: "startup", until: 0.05,
			setup: busyDriver,
		},
		{
			// One full period elapses before the deadline: one timer pass.
			name: "timer", trigger: "timer", until: 0.15,
			setup: busyDriver,
		},
		{
			// A budget drop mid-period, off the timer grid.
			name: "budget-change", trigger: "budget-change", until: 0.18,
			setup: func(t *testing.T) (*Driver, *Scheduler) {
				drv, s := busyDriver(t)
				budgets, err := power.NewBudgetSchedule(units.Watts(560),
					power.BudgetEvent{At: 0.12, Budget: units.Watts(294)})
				if err != nil {
					t.Fatal(err)
				}
				drv.Budgets = budgets
				return drv, s
			},
		},
		{
			// A job completing mid-period with the idle signal enabled.
			name: "idle-transition", trigger: "idle-transition", until: 0.28,
			setup: func(t *testing.T) (*Driver, *Scheduler) {
				m := quietMachine(t)
				mix, err := workload.NewMix(workload.Program{Name: "short", Phases: []workload.Phase{
					{Name: "c", Alpha: 1.4, Instructions: 320e6},
				}})
				if err != nil {
					t.Fatal(err)
				}
				if err := m.SetMix(2, mix); err != nil {
					t.Fatal(err)
				}
				cfg := noOverheadConfig()
				cfg.UseIdleSignal = true
				s, err := New(cfg, m, units.Watts(560))
				if err != nil {
					t.Fatal(err)
				}
				return NewDriver(m, s), s
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			drv, s := tc.setup(t)
			var log eventLog
			rec := recordDecisions(s, &log)
			if err := drv.Run(tc.until); err != nil {
				t.Fatal(err)
			}
			decs := rec.decs
			var events, passSpans []obs.Event
			triggered := 0
			for _, e := range log.all() {
				if e.Type == obs.EventSchedule && e.Trigger == tc.trigger {
					triggered++
				}
				switch {
				case e.Type == obs.EventSchedule:
					events = append(events, e)
				case e.Type == obs.EventSpan && e.Span == obs.SpanPass:
					passSpans = append(passSpans, e)
				}
			}
			if triggered != 1 {
				t.Errorf("%d trace events with trigger %q, want exactly 1", triggered, tc.trigger)
			}
			if len(events) != len(decs) {
				t.Fatalf("%d schedule events for %d decisions", len(events), len(decs))
			}
			if len(passSpans) != len(decs) {
				t.Fatalf("%d pass spans for %d decisions", len(passSpans), len(decs))
			}
			for i, e := range events {
				if e.Trigger != decs[i].Trigger || e.At != decs[i].At {
					t.Errorf("event %d = (%q, %v), decision = (%q, %v)",
						i, e.Trigger, e.At, decs[i].Trigger, decs[i].At)
				}
				if len(e.CPUs) != len(decs[i].Assignments) {
					t.Errorf("event %d has %d CPU traces for %d assignments", i, len(e.CPUs), len(decs[i].Assignments))
				}
				// Pass IDs count passes from the clock epoch and join the
				// schedule event with its span tree.
				if want := uint64(i + 1); e.PassID != want || passSpans[i].PassID != want {
					t.Errorf("pass %d: event PassID %d, span PassID %d", i, e.PassID, passSpans[i].PassID)
				}
			}
		})
	}
}

// busyDriver couples a quiet machine running four long CPU-bound jobs
// with a freshly built scheduler.
func busyDriver(t *testing.T) (*Driver, *Scheduler) {
	m := quietMachine(t)
	for cpu := 0; cpu < 4; cpu++ {
		mix, err := workload.NewMix(cpuProgram("cpu", 1e12))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetMix(cpu, mix); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(noOverheadConfig(), m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	return NewDriver(m, s), s
}

// TestBudgetChangePreemptsTimer: when a budget event and a timer pass land
// on the same quantum, the budget change is handled first (the safety-
// critical ordering of Driver.Step).
func TestBudgetChangePreemptsTimer(t *testing.T) {
	m := quietMachine(t)
	for cpu := 0; cpu < 4; cpu++ {
		mix, _ := workload.NewMix(cpuProgram("cpu", 1e12))
		m.SetMix(cpu, mix)
	}
	s, err := New(noOverheadConfig(), m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	// Event at exactly a multiple of T = 100 ms.
	budgets, err := power.NewBudgetSchedule(units.Watts(560),
		power.BudgetEvent{At: 0.2, Budget: units.Watts(294)})
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	drv.Budgets = budgets
	rec := recordDecisions(s)
	if err := drv.Run(0.35); err != nil {
		t.Fatal(err)
	}
	decs := rec.decs
	for i := 1; i < len(decs); i++ {
		if decs[i].Trigger == "timer" && decs[i].Budget.W() == 560 && decs[i].At > 0.2 {
			t.Errorf("timer decision at %.2fs still on the old budget", decs[i].At)
		}
	}
	// Power is under the new limit at the end.
	if got := m.TotalCPUPower(); got > units.Watts(295) {
		t.Errorf("power %v over the new budget", got)
	}
}
