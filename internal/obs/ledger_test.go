package obs

import (
	"strings"
	"testing"
)

func feedLedger(l *Ledger) {
	// Two nodes sampled each second; right-rectangle integration means the
	// final sample's power is not yet charged.
	for i := 0; i < 5; i++ {
		l.Emit(Event{Type: EventQuantum, At: float64(i), Node: "a", CPUPowerW: 100})
		l.Emit(Event{Type: EventQuantum, At: float64(i), Node: "b", CPUPowerW: 50})
	}
	// Three passes 2 s apart: charged 160 W then 260 W against a 200 W
	// budget → one overshoot interval of 2 s × 60 W.
	l.Emit(Event{Type: EventSchedule, At: 0, Trigger: "startup", BudgetW: 200, ChargedW: 160,
		CPUs: []CPUTrace{{CPU: 0}}})
	l.Emit(Event{Type: EventSchedule, At: 2, Trigger: "timer", BudgetW: 200, ChargedW: 260, BudgetMissed: true,
		Demotions: []DemotionTrace{{CPU: 0}},
		CPUs:      []CPUTrace{{CPU: 0, IPCError: -0.1, IPCErrorValid: true}}})
	l.Emit(Event{Type: EventSchedule, At: 4, Trigger: "timer", BudgetW: 200, ChargedW: 180,
		CPUs: []CPUTrace{{CPU: 0, IPCError: 0.3, IPCErrorValid: true}}})
	l.Emit(Event{Type: EventSpan, At: 0, PassID: 1, Span: SpanPass, DurS: 0.002})
	l.Emit(Event{Type: EventSpan, At: 2, PassID: 2, Span: SpanPass, DurS: 0.004})
}

func TestLedgerAccounting(t *testing.T) {
	l := NewLedger()
	feedLedger(l)
	s := l.Summary()

	if len(s.Nodes) != 2 || s.Nodes[0].Node != "a" || s.Nodes[1].Node != "b" {
		t.Fatalf("nodes = %+v", s.Nodes)
	}
	if s.Nodes[0].Joules != 400 || s.Nodes[1].Joules != 200 {
		t.Errorf("joules = %v/%v, want 400/200", s.Nodes[0].Joules, s.Nodes[1].Joules)
	}
	if s.TotalJoules != 600 {
		t.Errorf("total = %v, want 600", s.TotalJoules)
	}
	if s.Nodes[0].AvgW != 100 || s.Nodes[0].PeakW != 100 || s.Nodes[0].Seconds != 4 {
		t.Errorf("node a row = %+v", s.Nodes[0])
	}
	// Budget integral: 200 W × 4 s. Charged: 160×2 + 260×2.
	if s.BudgetJoules != 800 || s.ChargedJoules != 840 {
		t.Errorf("budget/charged = %v/%v, want 800/840", s.BudgetJoules, s.ChargedJoules)
	}
	if s.OvershootSeconds != 2 || s.OvershootJoules != 120 || s.PeakOvershootW != 60 {
		t.Errorf("overshoot = %v s / %v J / %v W", s.OvershootSeconds, s.OvershootJoules, s.PeakOvershootW)
	}
	if s.Passes != 3 || s.MissedPasses != 1 || s.Demotions != 1 {
		t.Errorf("passes=%d missed=%d demotions=%d", s.Passes, s.MissedPasses, s.Demotions)
	}
	if len(s.Triggers) != 2 || s.Triggers[0].Trigger != "startup" || s.Triggers[1].Passes != 2 {
		t.Errorf("triggers = %+v", s.Triggers)
	}
	if s.PredSamples != 2 || s.PredMeanAbsErr != 0.2 || s.PredMaxAbsErr != 0.3 {
		t.Errorf("pred = %d/%v/%v", s.PredSamples, s.PredMeanAbsErr, s.PredMaxAbsErr)
	}
	if s.Latency == nil || s.Latency.Passes != 2 || s.Latency.MaxMs != 4 {
		t.Errorf("latency = %+v", s.Latency)
	}
}

// TestLedgerAggregateRow: a single-machine trace has only the unnamed
// quantum row; it must carry the total rather than be dropped — and when
// named nodes exist, the unnamed row is an aggregate duplicate that must
// not double-count.
func TestLedgerAggregateRow(t *testing.T) {
	l := NewLedger()
	l.Emit(Event{Type: EventQuantum, At: 0, CPUPowerW: 100})
	l.Emit(Event{Type: EventQuantum, At: 1, CPUPowerW: 100})
	if got := l.Summary().TotalJoules; got != 100 {
		t.Errorf("machine-only total = %v, want 100", got)
	}

	l2 := NewLedger()
	for i := 0; i < 2; i++ {
		at := float64(i)
		l2.Emit(Event{Type: EventQuantum, At: at, Node: "a", CPUPowerW: 60})
		l2.Emit(Event{Type: EventQuantum, At: at, Node: "b", CPUPowerW: 40})
		l2.Emit(Event{Type: EventQuantum, At: at, CPUPowerW: 100}) // coordinator aggregate
	}
	if got := l2.Summary().TotalJoules; got != 100 {
		t.Errorf("named+aggregate total = %v, want 100 (no double count)", got)
	}
}

func TestLedgerTextDeterministicAndSectioned(t *testing.T) {
	render := func(sections []string) string {
		l := NewLedger()
		feedLedger(l)
		var sb strings.Builder
		if err := l.Summary().Filter(sections).WriteText(&sb, sections); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	all, err := ParseSections("all")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := render(all), render(all); a != b {
		t.Errorf("identical ledgers rendered differently:\n%s\n---\n%s", a, b)
	}
	det, err := ParseSections("compliance, energy")
	if err != nil {
		t.Fatal(err)
	}
	// Order is normalised to render order regardless of spec order.
	if det[0] != SectionEnergy || det[1] != SectionCompliance {
		t.Fatalf("sections = %v", det)
	}
	out := render(det)
	if strings.Contains(out, "latency") || !strings.Contains(out, "overshoot 2.000 s") {
		t.Errorf("sectioned output:\n%s", out)
	}
	if !strings.Contains(out, "600.000 J") {
		t.Errorf("missing total row:\n%s", out)
	}
	if _, err := ParseSections("energy,bogus"); err == nil {
		t.Error("unknown section accepted")
	}
}

func TestReplayJSONL(t *testing.T) {
	trace := `{"type":"quantum","t":0,"node":"a","cpu_power_w":10}
{"type":"quantum","t":1,"node":"a","cpu_power_w":10}

{"type":"schedule","t":0,"trigger":"startup","budget_w":50,"charged_w":20}
`
	l := NewLedger()
	n, err := ReplayJSONL(strings.NewReader(trace), l)
	if err != nil || n != 3 {
		t.Fatalf("replay = %d events, err %v", n, err)
	}
	if got := l.Summary().TotalJoules; got != 10 {
		t.Errorf("replayed total = %v, want 10", got)
	}
	if _, err := ReplayJSONL(strings.NewReader("{broken"), l); err == nil {
		t.Error("malformed line accepted")
	}
}
