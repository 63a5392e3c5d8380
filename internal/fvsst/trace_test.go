package fvsst

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/workload"
)

// eventLog is a trace sink that keeps every event in emission order.
type eventLog struct {
	mu     sync.Mutex
	events []obs.Event
}

func (l *eventLog) Emit(e obs.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

// all returns a copy of the events so far.
func (l *eventLog) all() []obs.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]obs.Event(nil), l.events...)
}

// decisionLog is a sink that keeps a copy of every pass's Decision, in
// order: on each schedule event it copies the scheduler's LastDecision,
// whose slices the next pass overwrites.
type decisionLog struct {
	s    *Scheduler
	decs []Decision
}

// recordDecisions makes a decisionLog the sink of s, teed with also.
func recordDecisions(s *Scheduler, also ...obs.Sink) *decisionLog {
	l := &decisionLog{s: s}
	s.SetSink(obs.Tee(append(also, l)...))
	return l
}

func (l *decisionLog) Emit(e obs.Event) {
	if e.Type != obs.EventSchedule {
		return
	}
	d, _ := l.s.LastDecision()
	d.Assignments = append([]Assignment(nil), d.Assignments...)
	d.Demotions = append([]Demotion(nil), d.Demotions...)
	l.decs = append(l.decs, d)
}

// TestPredictionErrorOnePeriodLater: once two passes have observed a busy
// processor, every further decision scores the previous pass's IPC
// prediction against the elapsed window, and the noise-free machine keeps
// that error small.
func TestPredictionErrorOnePeriodLater(t *testing.T) {
	drv, s := busyDriver(t)
	var log eventLog
	rec := recordDecisions(s, &log)
	if err := drv.Run(0.55); err != nil {
		t.Fatal(err)
	}
	decs := rec.decs
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
	for _, e := range log.all() {
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
	rec := recordDecisions(s)
	if err := drv.Run(0.25); err != nil {
		t.Fatal(err)
	}
	table := s.Config().Table
	for i, d := range rec.decs {
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

// TestLedgerResidencyEndToEnd: the scheduler's events, folded by the
// ledger, count one startup and one budget-change pass, and leave the
// memory-bound CPU mostly in its saturation band.
func TestLedgerResidencyEndToEnd(t *testing.T) {
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
	ledger := obs.NewLedger()
	s.SetSink(ledger)
	drv := NewDriver(m, s)
	drv.Budgets, _ = power.NewBudgetSchedule(units.Watts(560),
		power.BudgetEvent{At: 0.5, Budget: units.Watts(294)})
	if err := drv.Run(1.0); err != nil {
		t.Fatal(err)
	}
	sum := ledger.Summary()
	triggers := map[string]int{}
	for _, tc := range sum.Triggers {
		triggers[tc.Trigger] = tc.Passes
	}
	if triggers["budget-change"] != 1 || triggers["startup"] != 1 {
		t.Errorf("triggers = %v", sum.Triggers)
	}
	if len(sum.Residency) != 4 {
		t.Fatalf("residency rows = %+v", sum.Residency)
	}
	if top := sum.Residency[3].Top; len(top) == 0 || top[0].MHz < 600 || top[0].MHz > 700 {
		t.Errorf("CPU 3's residencies %+v, want the largest in 600–700 MHz", top)
	}
}
