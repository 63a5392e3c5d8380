package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

func scheduleEvent() Event {
	return Event{
		Type: EventSchedule, At: 0.2, Trigger: "budget-change",
		BudgetW: 294, TablePowerW: 280, HeadroomW: 14,
		CPUs: []CPUTrace{
			{CPU: 0, DesiredMHz: 1000, ActualMHz: 650, VoltageV: 1.2,
				PredictedLoss: 0.03, PredictedIPC: 0.9, ObservedIPC: 0.95,
				IPCError: -0.02, IPCErrorValid: true,
				Obs: &ObsTrace{WindowS: 0.02, Instructions: 100, Cycles: 200, FreqHz: 1e9}},
			{CPU: 1, Idle: true, DesiredMHz: 250, ActualMHz: 250, VoltageV: 1.1},
		},
		Demotions: []DemotionTrace{
			{CPU: 0, FromMHz: 1000, ToMHz: 650, PredictedLoss: 0.03},
		},
	}
}

func TestJSONLWriterRoundTrips(t *testing.T) {
	var sb strings.Builder
	j := NewJSONLWriter(&sb)
	j.Emit(scheduleEvent())
	j.Emit(Event{Type: EventQuantum, At: 0.21, SystemPowerW: 500, CPUPowerW: 280})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	var events []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("unparseable line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	e := events[0]
	if e.Type != EventSchedule || e.Trigger != "budget-change" || len(e.CPUs) != 2 || len(e.Demotions) != 1 {
		t.Errorf("schedule event mangled: %+v", e)
	}
	if e.CPUs[0].DesiredMHz != 1000 || e.CPUs[0].ActualMHz != 650 || !e.CPUs[0].IPCErrorValid {
		t.Errorf("cpu trace mangled: %+v", e.CPUs[0])
	}
	if o := e.CPUs[0].Obs; o == nil || *o != *scheduleEvent().CPUs[0].Obs {
		t.Errorf("observation window not round-tripped: %+v", o)
	}
	if e.CPUs[1].Obs != nil {
		t.Error("idle CPU grew an observation")
	}
	if events[1].Type != EventQuantum || events[1].SystemPowerW != 500 {
		t.Errorf("quantum event mangled: %+v", events[1])
	}
}

func TestTeeAndBuffer(t *testing.T) {
	var a, b Buffer
	s := Tee(nil, &a, nil, &b)
	s.Emit(scheduleEvent())
	s.Emit(Event{Type: EventQuantum})
	for _, buf := range []*Buffer{&a, &b} {
		if got := buf.Count("", ""); got != 2 {
			t.Errorf("buffer saw %d events", got)
		}
		if got := buf.Count(EventSchedule, "budget-change"); got != 1 {
			t.Errorf("filtered count = %d", got)
		}
	}
	if _, ok := Tee().(NopSink); !ok {
		t.Error("empty Tee is not NopSink")
	}
	if Tee(&a) != Sink(&a) {
		t.Error("single-sink Tee added indirection")
	}
	NopSink{}.Emit(scheduleEvent()) // must not panic
}

func TestMetricsAggregation(t *testing.T) {
	m := NewMetrics()
	ev := scheduleEvent()
	m.Emit(ev)
	m.Emit(ev)
	miss := ev
	miss.Trigger = "timer"
	miss.BudgetMissed = true
	m.Emit(miss)
	m.Emit(Event{Type: EventQuantum, SystemPowerW: 510, CPUPowerW: 300, BudgetW: 294})

	var sb strings.Builder
	if err := m.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`fvsst_decisions_total{trigger="budget-change"} 2`,
		`fvsst_decisions_total{trigger="timer"} 1`,
		`fvsst_budget_misses_total 1`,
		`fvsst_demotions_total{node="",cpu="0"} 3`,
		`fvsst_cpu_frequency_mhz{node="",cpu="0"} 650`,
		`fvsst_cpu_frequency_decisions_total{node="",cpu="0",mhz="650"} 3`,
		`fvsst_cpu_idle_decisions_total{node="",cpu="1"} 3`,
		`fvsst_budget_headroom_watts 14`,
		`machine_system_power_watts 510`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
	// Three valid IPC-error observations of |−0.02| land under the 0.02 bound.
	if !strings.Contains(out, `fvsst_prediction_abs_error_bucket{le="0.02"} 3`) {
		t.Errorf("prediction error histogram wrong:\n%s", out)
	}
}
